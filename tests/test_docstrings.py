"""Every public name documents itself."""

import pytest

import lapclust


@pytest.mark.parametrize("name", lapclust.__all__)
def test_every_public_name_has_a_docstring_of_its_own(name):
    obj = getattr(lapclust, name)
    # a class's own __doc__ is in its __dict__; a dataclass without one gets
    # its generated signature, "Name(field: type = default, ...)"
    doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    assert not doc.startswith(f"{name}("), f"{name}'s docstring is its generated signature"
