"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them).

Criterion 9's exact-mean clause is checked as E[sum X_j] = (k^2+3k)/4.
X_j is the 1-based rank of the paid cost among the unread letters' costs
(which makes Y_j >= 0 with equality attainable, as criterion 6's
zero-slack property needs), uniform on [k-j+1] = {1..k-j+1}; a uniform
variable on [m] has mean (m+1)/2, so E[sum X_j] = sum_{m=1..k} (m+1)/2 =
(k^2+3k)/4. The source text quotes (k^2+k)/4, which no rank convention
reaches; 09b pins it as wrong, as criterion 7 pins its quoted sum.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from superpatterns.bounds import forL_bound, infeasibility
from superpatterns.cli import main as cli_main
from superpatterns.dfa import (
    build_greedy_dfa,
    build_subset_dfa,
    build_two_track_dfa,
    cheapen,
    finite_edges,
    is_k_dfa,
    perm_cost_census,
    random_k_dfa,
    walk_cost,
)
from superpatterns.patterns import (
    as_word,
    exhaustive_f_search,
    f_oracle,
    greedy_embed,
    is_pattern,
    is_superpattern,
    repeat_word,
)
from superpatterns.walks import (
    cost_distributions_by_length,
    exact_P,
    exact_P_max,
    sample_x_sums,
    xy_decompose,
)

from child import run_python
from oracles import shifted_mahonian

EXAMPLE_1232_EDGES = [
    (0, 1, 1, 1),
    (0, 2, 2, 2),
    (0, 3, 3, 3),
    (1, 2, 2, 1),
    (1, 3, 3, 2),
    (2, 2, 4, 2),
    (2, 3, 3, 1),
    (3, 2, 4, 1),
]


def _report(num: int, label: str, t0: float, budget: float) -> float:
    elapsed = time.perf_counter() - t0
    print(f"CRITERION {num:2d} PASS ({elapsed:7.3f}s < {budget:g}s): {label}")
    return elapsed


def test_criterion_01_worked_automaton_edges(capsys):
    t0 = time.perf_counter()
    # operation timing: build + edge extraction, best of five
    best = math.inf
    for _ in range(5):
        s = time.perf_counter()
        edges = finite_edges(build_greedy_dfa(as_word((1, 2, 3, 2), 3)))
        best = min(best, time.perf_counter() - s)
    assert edges == EXAMPLE_1232_EDGES
    assert best < 1e-3, f"build+emit took {best*1e3:.3f} ms"
    # and the CLI emits the same edge list bit-exactly
    rc = cli_main(["dfa", "build", "greedy", "--word", "1", "2", "3", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    cli_edges = [
        (row["state"], e["letter"], e["next"], e["cost"])
        for row in doc["rows"]
        for e in sorted(row["edges"], key=lambda e: e["letter"])
        if e["cost"] != "inf"
    ]
    assert cli_edges == EXAMPLE_1232_EDGES
    with capsys.disabled():
        _report(1, f"worked 1,2,3,2 edge list bit-exact; build {best*1e6:.0f} us (< 1 ms)", t0, 5)


def test_criterion_02_greedy_cost_pattern_equivalence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    mismatches = 0
    for _ in range(1000):
        k = rng.randint(1, 6)
        n = rng.randint(0, 12)
        sigma = as_word(tuple(rng.randint(1, k) for _ in range(n)), k)
        a = build_greedy_dfa(sigma)
        for tau in permutations(range(1, k + 1)):
            greedy_ok = greedy_embed(sigma, tau) is not None
            cost_ok = walk_cost(a, 0, tau).total_cost <= n
            pattern_ok = is_pattern(sigma, tau)
            if not (greedy_ok == cost_ok == pattern_ok):
                mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    with capsys.disabled():
        _report(2, "1000 words x all permutations: three routes agree", t0, 30)


def test_criterion_03_cheapening_soundness(capsys):
    t0 = time.perf_counter()
    violations = 0
    for n in range(0, 7):
        for letters in product((1, 2, 3), repeat=n):
            a = build_greedy_dfa(as_word(letters, 3))
            b = cheapen(a)
            if not is_k_dfa(b):
                violations += 1
                continue
            # joint walk over every word of length <= 4 from every state:
            # same transitions, so one traversal compares both costs at
            # every node (covering all shorter words as prefixes)
            def rec(v, ca, cb, depth):
                nonlocal violations
                for t in (1, 2, 3):
                    na = ca + a.step_cost(v, t)
                    nb = cb + b.step_cost(v, t)
                    if nb > na:
                        violations += 1
                    if depth < 3:
                        rec(a.step(v, t), na, nb, depth + 1)

            for v in a.states:
                rec(v, 0, 0, 0)
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(3, "cheapenings are k-DFAs dominating all length<=4 walks", t0, 60)


def test_criterion_04_repetition_superpattern(capsys):
    t0 = time.perf_counter()
    for k in range(2, 8):
        assert is_superpattern(repeat_word(k, k), k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    with capsys.disabled():
        _report(4, "k copies of 1..k is a k-superpattern, k = 2..7", t0, 10)


def test_criterion_05_f_oracle_anchors(capsys):
    t0 = time.perf_counter()
    assert f_oracle(3, 3)[0] == 1
    assert f_oracle(3, 4)[0] == 2
    assert f_oracle(3, 9)[0] == 6
    assert infeasibility(3, 3, 4, math.log(2))
    rows = exhaustive_f_search(3, 3, 4)
    assert all(not ok for _, ok in rows)  # f(3;3) > 4, consistently
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(5, "max-pattern anchors and the f(3;3) > 4 certificate", t0, 60)


def test_criterion_06_subset_dfa_properties(capsys):
    t0 = time.perf_counter()
    for k in range(1, 8):
        s = build_subset_dfa(k)
        for tau in permutations(range(1, k + 1)):
            assert sum(xy_decompose(s, tau).y_slacks) == 0
    violations = 0
    for k in range(1, 6):
        s_census = perm_cost_census(build_subset_dfa(k))
        s_cum = []
        acc = 0
        for c in range(0, k * k + 1):
            acc += s_census.get(c, 0)
            s_cum.append(acc)
        for seed in range(100):
            census = perm_cost_census(random_k_dfa(k, 1 + seed % 8, seed))
            acc = 0
            for n in range(0, k * k + 1):
                acc += census.get(n, 0)
                if acc > s_cum[n]:
                    violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    with capsys.disabled():
        _report(6, "zero slack k<=7; subset census dominates 400 random k-DFAs", t0, 120)


def _share_within(dist, k, L, eps, strict):
    # P(L, eps) from one start's length-L cost distribution, in Fractions,
    # a float epsilon read as its shortest decimal
    threshold = (Fraction(1, 2) - Fraction(str(eps))) * k * L
    hits = sum(n for c, n in dist.items() if (c < threshold if strict else c <= threshold))
    return Fraction(hits, math.perm(k, L))


def test_criterion_06b_subset_root_is_the_supremum(capsys):
    # criterion 06 as exact probabilities: the subset root's P(L, eps) is
    # the largest over every start of every k-DFA, so exact_P_max on the
    # subset automaton is its root's, and no other automaton passes it
    t0 = time.perf_counter()
    grid = [(i / 20, strict) for i in range(11) for strict in (True, False)]
    for k in range(1, 7):
        s = build_subset_dfa(k)
        dists = [cost_distributions_by_length(s, v, k) for v in s.states]
        for L in range(k + 1):
            for eps, strict in grid:
                each = max(_share_within(d[L], k, L, eps, strict) for d in dists)
                assert exact_P_max(s, L, eps, strict=strict) == each, (k, L, eps, strict)
    rng = random.Random(6)
    automata = [random_k_dfa(k, states, seed) for k in range(2, 8) for states, seed in ((3, k), (9, 10 + k))]
    automata += [build_two_track_dfa(k) for k in (2, 4, 6, 8)]
    while len(automata) < 22:
        k = rng.randint(2, 6)
        word = as_word([rng.randint(1, k) for _ in range(rng.randint(k, 3 * k))], k)
        automata.append(cheapen(build_greedy_dfa(word)))
    equal = cases = 0
    for dfa in automata:
        k = dfa.alphabet_size
        for L in range(k + 1):
            for eps, strict in grid:
                p = exact_P_max(dfa, L, eps, strict=strict)
                root = exact_P(build_subset_dfa(k), 0, L, eps, strict=strict)
                assert p <= root, (dfa, L, eps, strict)
                equal += p == root
                cases += 1
    # L <= 1 always ties (every row is a permutation); longer words need not
    assert 0 < equal < cases
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(6, "exact_P_max: subset root attains the sup over k-DFAs", t0, 60)


def test_criterion_07_two_track_decomposition(capsys):
    t0 = time.perf_counter()
    for k in (2, 4, 6, 8, 10):
        m = k // 2
        d = build_two_track_dfa(k)
        r_of = {}
        for v in d.states:
            for t in range(1, k + 1):
                c = d.step_cost(v, t)
                q, r = divmod(c - 1, m)
                r += 1
                assert q in (0, 1)
                assert 1 <= r <= m
                assert r_of.setdefault(t, r) == r  # state-independent
        total_r = sum(r_of.values())
        assert total_r == k * k // 4 + k // 2
        # the source text asserts k^2/4 - k/2 for this sum; the verbatim
        # cost cases give k^2/4 + k/2, and this pins the discrepancy
        assert total_r != k * k // 4 - k // 2
    with capsys.disabled():
        _report(7, "cost = m*q + r with state-free r; sum r = k^2/4 + k/2", t0, 60)


def test_criterion_08_forL_at_desk_scale(capsys):
    t0 = time.perf_counter()
    k = 7
    rng = random.Random(708)
    dfas = [build_subset_dfa(k)]
    for _ in range(20):
        n = rng.randint(10, 24)
        word = as_word(tuple(rng.randint(1, k) for _ in range(n)), k)
        dfas.append(cheapen(build_greedy_dfa(word)))
    for seed in range(20):
        dfas.append(random_k_dfa(k, 5, seed))
    epsilons = (0.1, 0.25, 0.5)
    violations = 0
    for dfa in dfas:
        best = {(L, e): Fraction(0) for L in range(k + 1) for e in epsilons}
        for v in dfa.states:
            dists = cost_distributions_by_length(dfa, v, k)
            for L in range(k + 1):
                total = sum(dists[L].values())
                for e in epsilons:
                    thr = (0.5 - e) * k * L
                    hits = sum(c for cost, c in dists[L].items() if cost < thr)
                    p = Fraction(hits, total)
                    if p > best[(L, e)]:
                        best[(L, e)] = p
        for (L, e), p in best.items():
            if p > 0 and math.log(p) > forL_bound(k, L, e) + 1e-12:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    with capsys.disabled():
        _report(8, "exact P <= walk bound on 41 k-DFAs, all L and epsilon", t0, 120)


def test_criterion_09a_x_uniform_independent(capsys):
    t0 = time.perf_counter()
    k = 5
    from collections import Counter

    for dfa in (build_subset_dfa(k), random_k_dfa(k, 6, 17)):
        seen = Counter()
        for tau in permutations(range(1, k + 1)):
            vec = xy_decompose(dfa, tau).x_ranks
            assert all(1 <= vec[j] <= k - j for j in range(k))
            seen[vec] += 1
        # exactly one permutation per X vector: coordinates are exactly
        # uniform and exactly jointly independent
        assert len(seen) == math.factorial(k)
        assert set(seen.values()) == {1}
    with capsys.disabled():
        _report(9, "[9a] X exactly uniform and independent at k=5 (2 DFAs)", t0, 60)


def test_criterion_09b_x_mean_as_stated(capsys):
    """Criterion 9's mean clause: E[sum X_j] = (k^2+3k)/4 exactly at k=5.

    X_j is uniform on [m] for pool size m = k-j+1 (09a), with mean
    (m+1)/2, so E[sum X_j] = sum_{m=1..k} (m+1)/2 = (k^2+3k)/4 whatever
    the automaton. The quoted (k^2+k)/4 is asserted to be wrong.
    """
    t0 = time.perf_counter()
    k = 5
    expected = sum(Fraction(m + 1, 2) for m in range(1, k + 1))
    stated = Fraction(k * k + k, 4)
    assert expected == Fraction(k * k + 3 * k, 4)
    for dfa in (build_subset_dfa(k), random_k_dfa(k, 6, 17)):
        total = sum(
            sum(xy_decompose(dfa, tau).x_ranks)
            for tau in permutations(range(1, k + 1))
        )
        exact_mean = Fraction(total, math.factorial(k))
        assert exact_mean == expected, (
            f"exact mean of sum X_j over S_5 is {exact_mean}, but ranks "
            f"uniform on [m] for m = 1..k give (k^2+3k)/4 = {expected}"
        )
        # the source text quotes (k^2+k)/4 for this mean; pin it as wrong
        assert exact_mean != stated, (
            f"exact mean {exact_mean} equals the quoted (k^2+k)/4 = {stated}, "
            f"not (k^2+3k)/4 = {expected}"
        )
    with capsys.disabled():
        _report(
            9,
            f"[9b] exact E[sum X] = (k^2+3k)/4 = {expected} at k=5 (2 DFAs); "
            f"quoted (k^2+k)/4 = {stated} is wrong",
            t0,
            60,
        )


def test_criterion_09c_x_tail_bound_k60(capsys):
    t0 = time.perf_counter()
    k, samples = 60, 10**5
    xs = sample_x_sums(build_subset_dfa(k), samples, seed=2026)
    tail = float((xs <= (0.25 - 0.1) * k * k).mean())
    bound = math.exp(-32 * 0.01 * k / 3)
    slack = 3 * math.sqrt(bound * (1 - bound) / samples)
    assert tail <= bound + slack
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(9, f"[9c] tail freq {tail:g} <= exp(-32 eps^2 k/3) + 3 sigma", t0, 60)


@pytest.fixture(scope="module")
def subset_root_k60():
    """SubsetDfa(60), the injective-word count that exact_P's unchanged
    cap must admit at L = 60, and its k = L = 60 root layer: {sum X: count}
    over S_60, since Y = 0 on this automaton, checked against the tests'
    Mahonian oracle."""
    k = 60
    s, words = build_subset_dfa(k), sum(math.perm(k, L) for L in range(1, k + 1))
    census = cost_distributions_by_length(s, 0, k, max_words=words)[k]
    assert census == shifted_mahonian(range(k, 0, -1))
    return s, words, census


def test_criterion_09c_exact_tail_k60(capsys, subset_root_k60):
    # exact companion of 09c: P(sum X <= (1/2 - 0.35) k^2 = 0.15 k^2)
    t0 = time.perf_counter()
    k = 60
    s, words, census = subset_root_k60
    tail = exact_P(s, 0, k, 0.35, strict=False, max_words=words)
    assert tail == Fraction(
        sum(n for c, n in census.items() if c <= 540), math.factorial(k)
    )
    bound = math.exp(-32 * 0.01 * k / 3)
    assert tail <= bound
    with capsys.disabled():
        _report(9, f"[9c] exact tail {float(tail):.3g} <= exp(-32 eps^2 k/3) = {bound:.3g}", t0, 60)


def test_criterion_09d_x_mean_k60_true_value(capsys):
    t0 = time.perf_counter()
    k, samples = 60, 10**5
    xs = sample_x_sums(build_subset_dfa(k), samples, seed=2026)
    true_mean = (k * k + 3 * k) / 4
    sigma = math.sqrt(sum((m * m - 1) / 12 for m in range(1, k + 1)) / samples)
    assert abs(float(xs.mean()) - true_mean) <= 3 * sigma
    with capsys.disabled():
        _report(
            9,
            f"[9d] MC mean {xs.mean():.2f} within 3 sigma of exact (k^2+3k)/4 = {true_mean}",
            t0,
            60,
        )


def test_criterion_09d_exact_mean_k60(capsys, subset_root_k60):
    # exact companion of 09d: the mean of the k = 60 root census
    t0 = time.perf_counter()
    k = 60
    _, _, census = subset_root_k60
    mean = Fraction(sum(c * n for c, n in census.items()), math.factorial(k))
    assert mean == Fraction(k * k + 3 * k, 4) == 945
    with capsys.disabled():
        _report(9, f"[9d] exact E[sum X] = {mean} = (k^2+3k)/4 at k=60", t0, 60)


def test_criterion_10_doubling_inequality(capsys):
    t0 = time.perf_counter()
    k = 6
    dfas = [build_subset_dfa(k)] + [random_k_dfa(k, 4, seed) for seed in range(10)]
    violations = 0
    for dfa in dfas:
        n_states = len(list(dfa.states))
        for L in (2, 3):
            M = k // L
            for eps in (0.1, 0.25):
                lhs = exact_P_max(dfa, M * L, eps)
                rhs = M * n_states * exact_P_max(dfa, L, eps)
                if lhs > rhs:
                    violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(10, "P(ML) <= M|V|P(L) exactly on subset + 10 random k-DFAs", t0, 60)


def test_criterion_11_cli_determinism(capsys):
    t0 = time.perf_counter()

    def run(args):
        proc = run_python("-m", "superpatterns.cli", *args, text=False)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    est = [
        "estimate-p", "--dfa", "subset", "--k", "6", "--L", "6",
        "--epsilon", "0.1", "--samples", "20000", "--seed", "99",
    ]
    outs = {
        run(est + ["--threads", "1"]),
        run(est + ["--threads", "1"]),
        run(est + ["--threads", "4"]),
        run(est + ["--threads", "7"]),
    }
    assert len(outs) == 1
    con = [
        "concentration", "--dfa", "subset", "--k", "12", "--M", "3",
        "--epsilon-star", "0.3", "--samples", "2000", "--seed", "7",
    ]
    outs = {
        run(con + ["--threads", "1"]),
        run(con + ["--threads", "3"]),
    }
    assert len(outs) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    with capsys.disabled():
        _report(11, "Monte-Carlo subcommands byte-identical across --threads", t0, 30)
