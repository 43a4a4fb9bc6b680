"""Per-length plans: no cache state changes an output, and no cached array
can be written."""

import inspect
import pkgutil
import sys

import numpy as np
import pytest

import hurstlab
from hurstlab import base, dfa, rs, vtp
from hurstlab.cli import main
from hurstlab.sampling import ExponentialSpec, exponential_rows

OPTIONS = ["--vtp-divisors-only", "--sd-mode", "population", "--min-window", "4"]


def clear_caches() -> None:
    """Empty every functools cache defined at module level in hurstlab, as
    the benchmark does before each call of its cold path."""
    for name, module in list(sys.modules.items()):
        if name == "hurstlab" or name.startswith("hurstlab."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_every_parameterised_cache_is_bounded():
    # an unbounded cache keyed by a caller's arguments grows without limit in
    # a long-lived process; only a cache of a function without parameters,
    # which holds one entry, may go without a maxsize
    caches = {}
    for info in pkgutil.iter_modules(hurstlab.__path__, "hurstlab."):
        module = __import__(info.name, fromlist=["_"])
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)) and obj.__module__ == info.name:
                caches[f"{info.name}.{name}"] = obj
    assert "hurstlab.rs.expected_rs" in caches and "hurstlab.cli.build_parser" in caches
    for name, cached in caches.items():
        if inspect.signature(cached.__wrapped__).parameters:
            assert cached.cache_parameters()["maxsize"] is not None, name
    assert rs.expected_rs.cache_parameters()["typed"]


def test_cache_state_changes_no_output(tmp_path, capsys):
    out = tmp_path / "report.json"

    def simulate(n_obs, *options):
        argv = ["simulate", "--lambdas", "1.5", "--sizes", str(n_obs),
                "--iteration-counts", "20", "--seed", "5", "--out", str(out), *options]
        assert main(argv) == 0
        files = sorted(tmp_path.glob("*.json")) + sorted(tmp_path.glob("*.csv"))
        return capsys.readouterr().out, {path.name: path.read_bytes() for path in files}

    def estimate(path):
        assert main(["estimate", str(path)]) == 0
        return capsys.readouterr().out

    # each configuration's cold run, then both after each other's and a
    # second length's calls: a plan keyed without some option shows there
    clear_caches()
    cold_options = simulate(128, *OPTIONS)
    clear_caches()
    cold = simulate(128)
    assert simulate(128) == cold
    simulate(256)
    assert simulate(128, *OPTIONS) == cold_options
    assert simulate(128) == cold

    series = tmp_path / "series.dat"
    values = exponential_rows(9, 0, 0, 1, ExponentialSpec(1.5, 512))[0]
    series.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    clear_caches()
    before = estimate(series)
    simulate(512)
    assert estimate(series) == before


def _arrays(obj):
    """Every ndarray in nested tuples and FitPlans."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, base.FitPlan):
        yield from _arrays((obj.scales, obj.abscissae))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


@pytest.mark.parametrize("n_obs", [128, 3072])
def test_plan_arrays_are_read_only(n_obs):
    # 3072's default VTP scales are two gather groups, 128's one
    policy = base.WindowPolicy(2)
    ws = vtp._default_ws(n_obs, False)
    plans = [rs._plan(n_obs, policy), dfa.dfa_plan(n_obs, policy), dfa._cached_profile_abscissae(16),
             vtp._gather_plan(n_obs, ws)]
    arrays = list(_arrays(tuple(plans)))
    assert len(arrays) >= 13
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def _vtp_outcome(x, **kwargs):
    """The bits of a VTP batch's statistics, H and scales, or its error."""
    try:
        fits = vtp.vtp_batch(x, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return fits.statistics.tobytes(), fits.hurst.tobytes(), fits.scales.tolist()


@pytest.mark.parametrize("divisors_only", [False, True])
@pytest.mark.parametrize("n_obs", [4, 7, 8, 9, 12, 127, 128, 2391, 2392, 3072, 32752])
def test_default_plan_matches_explicit_default_scales(n_obs, divisors_only):
    # the default path's range-keyed plans, cold and then warm, against the
    # explicit path given the same block sizes
    x = np.random.default_rng(n_obs).exponential(size=(2, n_obs))
    explicit = _vtp_outcome(x, scales=vtp._default_ws(n_obs, divisors_only),
                            divisors_only=divisors_only)
    clear_caches()
    assert _vtp_outcome(x, divisors_only=divisors_only) == explicit
    assert _vtp_outcome(x, divisors_only=divisors_only) == explicit
