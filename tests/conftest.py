import pytest


@pytest.fixture(scope="session")
def numpy_avx2():
    """Whether numpy runs float64 exp on its AVX2 path (CPU target X86_V3)
    rather than the AVX-512 one (X86_V4).  The two round some last bits
    differently, so an output pinned byte for byte keeps one value per
    path."""
    from numpy.lib.introspect import opt_func_info
    target = opt_func_info(func_name="^exp$",
                           signature="float64")["exp"]["dd"]["current"]
    return target == "X86_V3"
