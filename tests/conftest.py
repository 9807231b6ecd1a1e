import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def large_x_calm_dx(nu: float, x: float, n: int = 0):
    """d^n/dx^n calM_nu(x) as its integral at 40 digits, split at multiples of 1/x
    where e^(-xt) keeps its mass. Only for large x (1e3 and up): there the
    endpoint t = 1, which mpmath's quadrature resolves poorly for nu < 1/2,
    carries none of it."""
    import mpmath
    with mpmath.workdps(40):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        cuts = [0] + [mpmath.mpf(c) / x for c in (1, 4, 16, 64, 256)] + [1]
        return 2 / mpmath.sqrt(mpmath.pi) * mpmath.quad(
            lambda t: (-t) ** n * (1 - t * t) ** (nu - 0.5) * mpmath.exp(-x * t), cuts)


@pytest.fixture(scope="session")
def default_reports():
    """One full catalog sweep shared by every test that needs it."""
    import struvekit as sk
    return {r.case_id: r for r in sk.run_all()}


@pytest.fixture
def cold_memo():
    """Empty sweep memos, so a sweep evaluates every point afresh and
    leaves no memo built under a test's monkeypatches."""
    from struvekit import routes
    routes.memo.cache_clear()
    yield
    routes.memo.cache_clear()
