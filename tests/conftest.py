import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    from localhost_address_matching_ray.config import object_store_args

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **object_store_args(),
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_fixture_tables():
    """One shared small planted-cluster corpus for the pipeline tests."""
    from localhost_address_matching_ray.fixtures import CorpusSpec, generate_corpus

    return generate_corpus(CorpusSpec(n_base=250, seed=42))
