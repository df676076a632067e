import sys

import pytest


@pytest.fixture(autouse=True)
def int_str_limit_unchanged():
    """Fail any test that leaves the interpreter's int-to-str digit limit changed.

    hkrr writes numbers of any size without that process-wide setting, so
    nothing a test runs may leave it moved.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # Python before 3.10.7 has no limit
        yield
        return
    before = sys.get_int_max_str_digits()
    yield
    after = sys.get_int_max_str_digits()
    if after != before:
        sys.set_int_max_str_digits(before)
        pytest.fail(f"the int-to-str digit limit was left at {after}, not {before}")
