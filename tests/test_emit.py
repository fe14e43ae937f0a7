"""The trajectory CSV kernel against the bytes ``%`` reference.

``exp_harness._trajectory_csv`` prints positional ``%.17g`` fields with
numpy (``_positional_g17``) and hands any other trajectory to
``_trajectory_csv_printf``, the one bytes ``%`` call it replaced.  Each
test checks byte equality with ``%`` and, value by value, that the kernel
declines exactly the values ``%`` does not print positionally: a zero, a
non-finite value, or a decimal exponent below -4 or above 16.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from screened_mc import exp_harness
from screened_mc.screen_core import Trajectory


def _positional(x: float) -> bool:
    """Whether ``%.17g`` prints x positionally, the kernel's domain."""
    return x != 0.0 and math.isfinite(x) and b"e" not in b"%.17g" % x


def _kernel_fields(values) -> list[bytes] | None:
    fields = exp_harness._positional_g17(np.asarray(values, dtype=float))
    return None if fields is None else [col.tobytes().replace(b"\0", b"") for col in fields.T]


def _assert_fields_match(values) -> None:
    """The kernel prints the positional values as ``%`` does, and declines each other one."""
    values = [float(v) for v in values]
    inside = [v for v in values if _positional(v)]
    if inside:
        assert _kernel_fields(inside) == [b"%.17g" % v for v in inside]
    for v in values:
        if not _positional(v):
            assert _kernel_fields([v]) is None, v


def _trajectory(values, flags=None) -> Trajectory:
    """s_hat the values, t_hat the values reversed."""
    values = tuple(float(v) for v in values)
    flags = tuple(bool(i % 3) for i in range(len(values))) if flags is None else flags
    return Trajectory(values, values[::-1], flags)


def _assert_csv_matches(trajectory: Trajectory) -> None:
    assert exp_harness._trajectory_csv(trajectory) == exp_harness._trajectory_csv_printf(trajectory)


def _corpus() -> list[float]:
    values = []
    for e in range(-5, 18):
        p = float(f"1e{e}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    values += [1.0 + (2 * m + 1) * 2.0**-17 for m in range(512)]  # ties at the 17th digit
    big = 2.0**53
    values += [big, math.nextafter(big, 0.0), math.nextafter(big, math.inf)]
    values += [1e-4, math.nextafter(1e-4, 0.0)]
    values += [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]  # subnormals, least normal
    values += [0.0, math.inf, math.nan, sys.float_info.max, 9999999999999999.0, 99999999999999999.0]
    values += [0.1, 1.0 / 3.0, 2.0 / 3.0, 123.456, 5.0 / 3.0, 0.5, 1.5, 9.5, 0.00012345]
    return values + [-v for v in values]


def test_kernel_matches_printf_on_the_corpus():
    corpus = _corpus()
    _assert_fields_match(corpus)
    assert sum(map(_positional, corpus)) > 1000
    _assert_csv_matches(_trajectory(corpus))  # a nan in it: the printf path, whole
    inside = [v for v in corpus if _positional(v)]
    assert exp_harness._positional_g17(np.array(inside)) is not None
    _assert_csv_matches(_trajectory(inside))


def test_kernel_rounds_17th_digit_ties_half_to_even():
    # 1 + 2^-17 = 1.00000762939453125 has 18 digits and ends in 5
    assert _kernel_fields([1.0 + 2.0**-17, 1.0 + 3 * 2.0**-17]) == [
        b"1.0000076293945312",
        b"1.0000228881835938",
    ]


def test_kernel_matches_printf_on_a_million_bit_patterns():
    rng = np.random.default_rng(20240808)
    raw = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    # the same mantissas and signs with the binary exponent in [2^-15, 2^57):
    # the positional range and both of its edges
    exponent = rng.integers(1023 - 15, 1023 + 57, raw.size).astype(np.uint64)
    ranged = raw & np.uint64(((1 << 52) - 1) | (1 << 63)) | (exponent << np.uint64(52))
    for bits in (raw, ranged):
        values = bits.view(np.float64)
        mask = np.array([_positional(v) for v in values.tolist()])
        assert _kernel_fields(values[mask]) == [b"%.17g" % v for v in values[mask].tolist()]
        for chunk in values[:4000].reshape(4, 1000):
            _assert_csv_matches(_trajectory(chunk))
    outside = ranged.view(np.float64)[~mask]
    assert 0 < outside.size < 10**5
    for v in outside.tolist():
        assert _kernel_fields([v]) is None, v


positional_floats = st.floats(min_value=1e-4, max_value=1e17, exclude_max=True).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@given(
    st.lists(st.one_of(positional_floats, st.floats()), min_size=1, max_size=60),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_printf_on_drawn_columns(values, data):
    _assert_fields_match(values)
    flags = tuple(data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
    _assert_csv_matches(_trajectory(values, flags))


@given(st.lists(positional_floats, min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_kernel_prints_every_positional_column(values):
    trajectory = _trajectory(values)
    assert exp_harness._positional_g17(np.array(values + values[::-1])) is not None
    _assert_csv_matches(trajectory)


def test_empty_and_one_step_trajectories():
    _assert_csv_matches(Trajectory((), (), ()))
    _assert_csv_matches(Trajectory((0.25,), (-3.0,), (True,)))
    _assert_csv_matches(Trajectory((0.25,), (np.float64(-3.0),), (np.True_,)))


# numpy picks its log10 loop by CPU feature at import; these are the
# dispatched AVX-512 targets this host runs, which NPY_DISABLE_CPU_FEATURES
# turns off for one process
_AVX512 = [
    name
    for name in __cpu_dispatch__
    if __cpu_features__.get(name) and (name.startswith("AVX512") or name == "X86_V4")
]

_DISPATCH_CHILD = textwrap.dedent(
    """
    import hashlib, math, sys
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    from screened_mc import exp_harness
    from screened_mc.screen_core import Trajectory

    disabled = sys.argv[1].split()
    assert not any(__cpu_features__[name] for name in disabled), disabled
    values = [(-1) ** i * (1.0 + i / 997.0) * float(f"1e{i % 21 - 4}") for i in range(1000)]
    for e in range(-3, 17):
        p = float(f"1e{e}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    trajectory = Trajectory(tuple(values), tuple(values[::-1]), (True,) * len(values))
    assert exp_harness._positional_g17(np.array(values)) is not None
    print(hashlib.sha256(exp_harness._trajectory_csv(trajectory)).hexdigest())
    print(hashlib.sha256(exp_harness._trajectory_csv_printf(trajectory)).hexdigest())
    """
)


@pytest.mark.skipif(not _AVX512, reason="the host dispatches no AVX-512 loops")
def test_kernel_bytes_do_not_depend_on_simd_dispatch():
    src = os.path.dirname(os.path.dirname(os.path.abspath(exp_harness.__file__)))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512),
    )
    digests = []
    for child_env in (env, dict(env, NPY_DISABLE_CPU_FEATURES="")):
        proc = subprocess.run(
            [sys.executable, "-c", _DISPATCH_CHILD, child_env["NPY_DISABLE_CPU_FEATURES"]],
            env=child_env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests += proc.stdout.split()
    assert len(digests) == 4 and len(set(digests)) == 1
