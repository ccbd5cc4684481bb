"""Every corpus case still gives its recorded output (see regenerate_corpus)."""

import pytest

import regenerate_corpus as corpus

CASES = corpus.load_cases()


def test_corpus_is_populated():
    assert len(CASES) >= 30


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_gives_its_recorded_output(name):
    problems, _, _ = corpus.compare(CASES[name], corpus.run_case(CASES[name]))
    assert not problems, f"corpus case {name}:\n" + "\n".join(problems)


def test_numbers_agree_within_four_ulp_or_1e_15():
    def recording(line):
        return {"exit": 0, "stdout": [line], "stderr": [], "outputs": {}}

    def problems(a, b):
        return corpus.compare(recording(a), recording(b))[0]

    one, tiny = 1.0 + 2.0 ** -52, 1e-300
    assert problems(f"x: {1.0!r}\n", f"x: {1.0 + 4 * 2.0 ** -52!r}\n") == []
    assert problems(f"x: {one!r}\n", f"x: {1.0 + 6 * 2.0 ** -52!r}\n") == [
        "stdout line 1: 1.0000000000000002 moved to 1.0000000000000013, 5 ulp"]
    assert problems(f"{tiny!r},fig1\n", f"{tiny + 1e-15!r},fig1\n") == []
    assert problems(f"{tiny!r}\n", f"{tiny + 2e-15!r}\n") != []
    assert problems("t1,fig1\n", "t2,fig1\n") != []
    assert corpus.compare(recording("a\n"), {**recording("a\n"), "exit": 1})[0] == [
        "exit code: expected 0, got 1"]
