"""The verify runner's argument checks, and its samplers' random stream."""

import hashlib
import random

import pytest

from heisaut import verify


@pytest.fixture
def counted(monkeypatch):
    # group-axioms, wrapped to count the samples it runs
    calls = []
    suite = verify._SUITES["group-axioms"]

    def sample(rng):
        calls.append(rng)
        return suite.fn(rng)

    monkeypatch.setitem(verify._SUITES, "group-axioms",
                        verify._Suite("group-axioms", sample, static=False))
    return calls


def test_counted_suite_runs(counted):
    assert verify.run(["group-axioms"], samples=3).ok
    assert len(counted) == 3


@pytest.mark.parametrize("names", [["group-axioms", "no-such-suite"],
                                   ["no-such-suite", "group-axioms"]])
def test_unknown_name_runs_no_suite(counted, names):
    with pytest.raises(ValueError) as info:
        verify.run(names, samples=5)
    assert str(info.value) == ("unknown suite 'no-such-suite'; available: "
                               + ", ".join(verify.available_suites()))
    assert counted == []


@pytest.mark.parametrize("samples", [True, False, 2.0, "3", None],
                         ids=repr)
def test_samples_must_be_an_int(counted, samples):
    name = type(samples).__name__
    with pytest.raises(TypeError, match=f"^samples must be an int, got {name}$"):
        verify.run(["group-axioms"], samples=samples)
    with pytest.raises(TypeError, match=f"^samples must be an int, got {name}$"):
        verify.run_suite("group-axioms", samples, 0)
    assert counted == []


@pytest.mark.parametrize("samples", [0, -1])
def test_samples_must_be_positive(counted, samples):
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        verify.run(["group-axioms", "relations"], samples=samples)
    assert counted == []


@pytest.mark.parametrize("seed", [True, "1", 1.0, None], ids=repr)
def test_seed_must_be_an_int(counted, seed):
    # "1" used to replay seed 1's samples under another name, and True
    # or 1.0 keyed streams of their own
    name = type(seed).__name__
    with pytest.raises(TypeError, match=f"^seed must be an int, got {name}$"):
        verify.run(["group-axioms"], samples=2, seed=seed)
    with pytest.raises(TypeError, match=f"^seed must be an int, got {name}$"):
        verify.run_suite("group-axioms", 2, seed)
    assert counted == []


def test_names_must_not_be_a_str(counted):
    # a str is an iterable of one-letter names: it used to fail on 'g'
    with pytest.raises(TypeError, match="^names must be an iterable of suite "
                                        "names, not a str$"):
        verify.run("group-axioms", samples=2)
    assert counted == []


# sha256 of the samplers' output below, as the code gave it when the
# samplers last changed; a report is only reproducible from (seed,
# suite, samples) while the samplers draw and build exactly this
SAMPLER_DIGEST = "0211c9b80939160301fac0affc0eb68ffb147af3c00b036354aa9ba4a093a899"


def test_sampler_stream_is_pinned():
    digest = hashlib.sha256()
    for i in range(300):
        rng = random.Random(f"0:pin:{i}")
        for value in (verify._rand_matrix(rng), verify._rand_aut(rng),
                      verify._rand_element(rng), verify._rand_vector(rng),
                      verify._rand_word(rng), verify._rand_int(rng, verify.D_BOUND)):
            digest.update(f"{value}\n".encode())
    assert digest.hexdigest() == SAMPLER_DIGEST
