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
