"""Bit-identity pins for the analytic scheduling path.

The analytic mode (``execution="analytic"``) is the cluster-scale
check of the scheduler, so its outputs are pinned here value for value:
the sha256 of every trace profile at two seeds, and the
``result_digest()`` of a retained 5k-job analytic run under each of the
five placement policies.  A change to the trace draws, the roofline
pricing, the dispatch loop, a policy, the predictor or the streaming
fold that moves one bit fails here.

The trace generator relies on numpy identities: it draws its uniform
variates as ``Generator.random()`` would, and replays
``Generator.random()`` and ``Generator.integers(0, n)`` from the raw
PCG64 output (``_TraceDraws``).  They are pinned too, so a numpy
upgrade that breaks them fails with a message that names the cause
instead of a bare digest mismatch.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.sched import SchedSpec, TRACE_PROFILES, generate_trace
from repro.sched import workload
from repro.sched.workload import _TraceDraws
from repro.sim.rng import RngStreams

pytestmark = [pytest.mark.sched, pytest.mark.golden]

TRACE_JOBS = 2000
TRACE_RATE = 0.5

#: sha256 of ``generate_trace(profile, jobs=2000, rate=0.5, seed=seed)``.
PINNED_TRACES: dict[tuple[str, int], str] = {
    ("bursty", 0):
        "49d188842df69141e9d3523cd8484fe60e877e874b1042178b081ca991fc644e",
    ("bursty", 11):
        "8c38543bbadd8ceb376864b848d72509461624108e26a3510d4363f149d9679c",
    ("diurnal", 0):
        "35b0aae34d3c503b5f145a59ca0ba96acca110a46f99bd8c2a832fd2f9a985b4",
    ("diurnal", 11):
        "685741e2a0b43c207f6c34a9c1c804a298c1c005d765dba25301ce4958736412",
    ("poisson", 0):
        "4a7ef7295ad63d21b8725a48f4cb8292510a2e7b127d144b39ae298fe26645c1",
    ("poisson", 11):
        "cb24ce45ffacb0d601ea69b7f06d0a46e905ce5e4de13a94f2149a9dd59d8762",
    ("steady", 0):
        "4d38e4548743289437a0ca8c43681e0610fda0a46b697e3a0cbdb745e983d7fb",
    ("steady", 11):
        "6a3f85ff7547d61ce158a217536385833b86759e8f8e8dc95252443f1173c5d3",
}

#: ``result_digest()`` of :func:`analytic_spec` under each policy.  The
#: rate keeps the queue full and sheds ~1% of arrivals, so placement,
#: holding and rejection all feed the digest.
PINNED_RUNS: dict[str, str] = {
    "fcfs":
        "89e910424d77a94d05a75451d1a8a60d363dfcff84b5fe0e428eac38f27680db",
    "bestfit":
        "71d75b1d1584d61052bb0c7196b24c78bd64f9e7a944fbb96c79fdc57f6781c3",
    "edp":
        "2dc48cac8d5eda5e71cce7c333372cf7820b466d50d2168e884eb38dc40d7e8c",
    "waterfill":
        "f33ae95236639a56626295fc65f2347ca99063e4901daf69deb122865859459b",
    "predicted":
        "b7902cec574e68d29c96f744bc0f92bd571b024bd69a6644621a9cb0073cd1cb",
}


def trace_sha256(profile: str, seed: int) -> str:
    h = hashlib.sha256()
    for job in generate_trace(profile, jobs=TRACE_JOBS,
                              rate_jobs_per_s=TRACE_RATE, seed=seed):
        h.update((
            f"{job.index}|{job.submit_s!r}|{job.app}|{job.threads}|"
            f"{job.scale!r}|{job.compiler}|{job.optlevel}\n"
        ).encode())
    return h.hexdigest()


def analytic_spec(policy: str) -> SchedSpec:
    return SchedSpec(profile="diurnal", policy=policy, nodes=4,
                     budget_w=400.0, jobs=5000, rate_jobs_per_s=0.08,
                     time_limit_s=1e9, execution="analytic", seed=3)


def test_pins_cover_every_profile():
    assert {profile for profile, _ in PINNED_TRACES} == set(TRACE_PROFILES)


@pytest.mark.parametrize("profile,seed", sorted(PINNED_TRACES))
def test_trace_is_pinned(profile, seed):
    assert trace_sha256(profile, seed) == PINNED_TRACES[(profile, seed)]


@pytest.mark.parametrize("policy", sorted(PINNED_RUNS))
def test_analytic_run_is_pinned(policy):
    result = analytic_spec(policy).execute()
    assert result.completed + result.rejected_count == 5000
    assert result.result_digest() == PINNED_RUNS[policy]


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_numpy_uniform_draws_equal_scaled_random(seed):
    # Generator.uniform(low, high) computes low + (high - low) * random()
    # and 1.25 - 0.75 is exactly 0.5, so the trace may draw either form.
    gen_a = RngStreams(seed).stream("uniform-identity")
    gen_b = RngStreams(seed).stream("uniform-identity")
    for _ in range(2000):
        assert float(gen_a.uniform()) == float(gen_b.random()), (
            f"numpy {np.__version__}: Generator.uniform() no longer "
            f"equals Generator.random(); the pinned traces depend on it"
        )
        assert (float(gen_a.uniform(0.75, 1.25))
                == 0.75 + 0.5 * float(gen_b.random())), (
            f"numpy {np.__version__}: Generator.uniform(0.75, 1.25) no "
            f"longer equals 0.75 + 0.5 * Generator.random(); the pinned "
            f"traces depend on it"
        )


#: Bounds for the index identity: the small pools the trace uses, a
#: bound whose rejection zone is nearly half of all draws, and the
#: largest bound on numpy's 32-bit path.
INDEX_BOUNDS = (1, 2, 3, 5, 7, 1000, 2**31 + 11, 2**32 - 1)


def _numpy_broke(what: str) -> str:
    return (f"numpy {np.__version__}: {what}; the trace generator "
            f"replays it from random_raw() and the pinned traces depend "
            f"on it")


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_raw_bit_draws_equal_numpy_integers(seed):
    # Interleave every kind of draw the trace makes, so a helper that
    # kept its spare 32-bit half wrong would drift from numpy's buffer.
    gen = RngStreams(seed).stream("raw-identity")
    draws = _TraceDraws(RngStreams(seed).stream("raw-identity"))
    ops = itertools.cycle(INDEX_BOUNDS + ("burst", "random", "exp"))
    for op in itertools.islice(ops, 4000):
        if op == "random":
            assert draws.random() == float(gen.random()), _numpy_broke(
                "Generator.random() no longer equals next_double")
        elif op == "exp":
            assert (float(draws.exponential(2.5))
                    == float(gen.exponential(2.5))), _numpy_broke(
                "Generator.exponential() no longer reads whole 64-bit "
                "outputs only")
        elif op == "burst":
            assert 2 + draws.index(5) == int(gen.integers(2, 7)), (
                _numpy_broke("Generator.integers(2, 7) no longer equals "
                             "2 + the Lemire index in [0, 5)"))
        else:
            assert draws.index(op) == int(gen.integers(0, op)), (
                _numpy_broke(f"Generator.integers(0, {op}) no longer "
                             f"equals the buffered Lemire index"))


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_raw_bit_uniform_is_next_double(seed):
    gen_a = RngStreams(seed).stream("next-double")
    gen_b = RngStreams(seed).stream("next-double")
    for _ in range(2000):
        assert (float(gen_a.random())
                == (gen_b.bit_generator.random_raw() >> 11) * 2**-53), (
            _numpy_broke("Generator.random() is no longer "
                         "(random_raw() >> 11) * 2**-53"))


#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _steered(raw: int) -> np.random.Generator:
    """A PCG64 generator whose next ``random_raw()`` is ``raw``.

    PCG64 steps its state, then outputs ``rotr64(hi ^ lo, hi >> 58)``.
    With ``hi``'s top six bits clear there is no rotation, so the
    stepped state ``(hi, hi ^ raw)`` outputs ``raw``; one LCG step back
    gives the state to set.
    """
    hi, inc = 0x0123456789ABCDEF, 0xDA3E39CB94B95BDB
    stepped = (hi << 64) | (hi ^ raw)
    state = (stepped - inc) * pow(_PCG_MULT, -1, 1 << 128) % (1 << 128)
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def _inverse32(n: int) -> int:
    return pow(n, -1, 1 << 32)


_BIG_N = 2**31 + 11  # threshold (2**32 - n) % n = 2**31 - 11

#: ``(n, raw outputs, index)``: each first 32-bit draw (the low half)
#: is built to land on an edge of Lemire's rejection test, at a
#: probability of ~2**-32 that no seed search would reach.
REJECTION_CASES = [
    # low word 0 < threshold 1: rejected; the high half then gives 1.
    (3, [0x80000000 << 32], 1),
    # low word exactly the threshold 1: accepted (index 2).
    (3, [_inverse32(3)], 2),
    # low word threshold - 1: rejected; the high half 2**32 - 1 leaves
    # the threshold itself and is accepted, giving n - 1.
    (_BIG_N, [(0xFFFFFFFF << 32) | (2**31 - 12) * _inverse32(_BIG_N)
              % (1 << 32)], _BIG_N - 1),
    # Both halves rejected: the loop draws a second raw output.
    (3, [0, 0x55555556], 1),
]


@pytest.mark.parametrize("n,raws,expected", REJECTION_CASES)
def test_index_rejection_against_a_scripted_source(n, raws, expected):
    source = iter(raws)
    draws = _TraceDraws(np.random.default_rng(0), raw=source.__next__)
    assert draws.index(n) == expected
    assert next(source, None) is None  # every scripted word was used
    if len(raws) == 1:
        # numpy itself, steered onto the same raw output, agrees.
        assert _steered(raws[0]).bit_generator.random_raw() == raws[0]
        assert int(_steered(raws[0]).integers(0, n)) == expected, _numpy_broke(
            f"Generator.integers(0, {n}) no longer applies Lemire's "
            f"rejection to the low half first")


def test_index_of_one_draws_nothing():
    def no_draw():
        raise AssertionError("index(1) must not draw")

    draws = _TraceDraws(np.random.default_rng(0), raw=no_draw)
    assert draws.index(1) == 0
    gen = np.random.default_rng(5)
    before = gen.bit_generator.state
    assert int(gen.integers(0, 1)) == 0
    assert gen.bit_generator.state == before, _numpy_broke(
        "Generator.integers(0, 1) now consumes randomness")


@pytest.mark.parametrize("profile", ["bursty", "diurnal"])
def test_trace_never_uses_numpys_32_bit_buffer(profile, monkeypatch):
    # Every integer draw goes through _TraceDraws, which keeps its own
    # spare half; numpy's buffer must stay untouched, or the two drift.
    made = []

    class Recording(RngStreams):
        def stream(self, name):
            gen = super().stream(name)
            made.append(gen)
            return gen

    monkeypatch.setattr(workload, "RngStreams", Recording)
    generate_trace(profile, jobs=300, rate_jobs_per_s=0.5, seed=3)
    assert len(made) == 1
    state = made[0].bit_generator.state
    assert state["has_uint32"] == 0, _numpy_broke(
        f"the {profile} trace drew through numpy's 32-bit buffer")
