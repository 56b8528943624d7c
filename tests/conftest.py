import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_sequence(rng, frames, rows, cols, scale=1.0):
    shape = (frames, rows, cols)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` pins the frame-block worker count to n for the test,
    whatever the shape of the stacks."""
    from rdledm import _threads

    def pin(count):
        monkeypatch.setattr(_threads, "_worker_count", lambda *_: count)

    return pin


@pytest.fixture
def blas_threads():
    # (get, set) of NumPy's BLAS thread count; the count is restored after
    from rdledm import _threads

    calls = _threads._blas_thread_calls()
    if calls is None:
        pytest.skip("NumPy's BLAS exports no thread-count call")
    get, set_ = calls
    before = get()
    yield get, set_
    set_(before)


def late_noise_overflow(frames=4, rows=16, cols=16):
    """(sigma, seed) at which measure's noise overflows in the second half
    of ``frames`` zero frames only.

    At sigma = max/4 a scaled draw overflows where |n| > 4. The seed is the
    first whose frame streams draw no such value in the first half of the
    frames and at least one in the second half, so on two workers the
    overflow happens on a pool thread.
    """
    from rdledm.sampling import _frame_rng

    sigma = float(np.finfo(float).max) / 4

    def overflows(seed, t):
        with np.errstate(over="ignore"):
            draws = _frame_rng(seed, t).standard_normal(2 * rows * cols) * sigma
        return bool(np.isinf(draws).any())

    half = frames // 2
    seed = next(s for s in range(10_000)
                if not any(overflows(s, t) for t in range(half))
                and any(overflows(s, t) for t in range(half, frames)))
    return sigma, seed
