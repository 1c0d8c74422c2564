"""The verify runner's argument checks."""

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
