import importlib.util
import os

import cbos
import cbos.trainer

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_export_resolves():
    missing = [name for name in cbos.__all__ if not hasattr(cbos, name)]
    assert not missing
    assert len(set(cbos.__all__)) == len(cbos.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cbos import *", namespace)
    assert set(cbos.__all__) <= namespace.keys()


def test_every_name_the_bench_traces_exists():
    """The benchmark's tracer patches cbos names by attribute: removing one breaks the traced round."""
    spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    train = cbos.trainer.train
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cbos.trainer.train is not train
    finally:
        tracer.uninstall()  # also undoes the patches made before a missing name raised
    assert cbos.trainer.train is train
