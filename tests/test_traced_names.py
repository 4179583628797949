"""The benchmark's tracer rebinds the functions it names in
`perfbench/tracing.py` (`TARGETS`) in every ghzpurify module that holds
them: a change that drops or moves one of those names breaks the benchmark,
and fails here too."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import tracing   # the standard library only
finally:
    sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves():
    for module, attr, _ in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_schedule_calls_the_density_builder_by_its_traced_name():
    # the dense engine's encode looks the name up in `schedule`, where the
    # tracer rebinds it
    from ghzpurify import ghz, schedule
    assert schedule.ensemble_to_density is ghz.ensemble_to_density
