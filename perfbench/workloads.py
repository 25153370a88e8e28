"""The four workloads as fixed, seeded op lists.

Each builder draws every input from Random(f"<workload>/<seed>"): words,
permutations, random automata, start states, epsilons and Monte-Carlo
seeds. The sizes are fixed, so every seed gives the same mix of op costs.
Each op carries a check that does not reuse the code path it checks (see
checks.py), and the work it does as a computed count for the traced rates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from checks import expect
import checks as C

# At most nproc threads per op; the paired ops that exercise --threads use
# this many and are refused on a machine with fewer cores.
THREADS = 2


@dataclass
class Op:
    name: str
    call: Optional[Callable[[dict], Any]]  # ctx -> output; None for CLI ops
    check: Callable[[Any], None]  # raises CheckFailed
    work: dict = field(default_factory=dict)
    twin: Optional[str] = None  # a threads=1 op whose output this one must equal
    digest: Optional[Callable[[Any], str]] = None  # byte-identity digest
    argv: Optional[list] = None  # CLI ops: arguments after `superpatterns`


def tree(k: int, L: int) -> int:
    """Injective words of every length 1..L over [k]: the prefix tree the
    exact enumeration walks."""
    return sum(math.perm(k, l) for l in range(1, L + 1))


def subset_mean(k: int, L: int) -> float:
    return sum((k - j + 1) / 2 for j in range(L))


def pick_eps(rng: random.Random, k: int, L: int, lo: float, hi: float) -> str:
    """Decimal epsilon in [lo, hi] whose threshold (1/2-eps)kL is not an
    integer, so float and decimal readings of it count the same costs."""
    lo = max(lo, 0.005)
    while True:
        text = f"{rng.uniform(lo, hi):.3f}"
        if ((Fraction(1, 2) - Fraction(text)) * k * L).denominator != 1:
            return text


def eps_subset(rng, k, L):
    target = 0.5 - subset_mean(k, L) / (k * L)
    return pick_eps(rng, k, L, target - 0.03, target + 0.03)


def eps_walk(rng, k, L):
    return pick_eps(rng, k, L, 0.005, 0.06)


def covering_word(rng: random.Random, k: int, n: int) -> tuple:
    """A word of length n over [k] that uses every letter."""
    letters = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(n - k)]
    rng.shuffle(letters)
    return tuple(letters)


def random_perm(rng: random.Random, k: int) -> tuple:
    p = list(range(1, k + 1))
    rng.shuffle(p)
    return tuple(p)


def brute_circular(orc, word, tau, both: bool) -> bool:
    """tau in some rotation of word (or, with both, of its reversal)."""
    cands = [word[j:] + word[:j] for j in range(len(word))]
    if both:
        cands += [c[::-1] for c in cands]
    return any(orc.brute_is_pattern(c, tau) for c in cands)


def lazy(make):
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


def _hist_subset(k, L):
    return lambda: C.subset_root_hist(k, L)


def _hist_rows(tab, k, start, L):
    return lambda: C.brute_hist(tab(), k, start, L)


# ---------------------------------------------------------------------------
# exact_enum


def exact_enum(lib, orc, seed: int) -> list[Op]:
    D, W = lib.dfa, lib.walks
    rng = random.Random(f"exact_enum/{seed}")
    sub = {k: D.build_subset_dfa(k) for k in (8, 9, 12, 13, 14)}
    two8, two12 = D.build_two_track_dfa(8), D.build_two_track_dfa(12)
    rand8 = [D.random_k_dfa(8, 10, rng.randrange(2**31)) for _ in range(2)]
    rand12 = D.random_k_dfa(12, 20, rng.randrange(2**31))
    randmax = D.random_k_dfa(8, 4, rng.randrange(2**31))
    words = [covering_word(rng, 8, 20) for _ in range(2)]
    greedy8 = D.build_greedy_dfa(words[1])
    cheap8 = D.cheapen(greedy8)
    tabs = {id(d): lazy(lambda d=d: C.tables(d)) for d in (two8, two12, *rand8, rand12, randmax, cheap8)}
    ops: list[Op] = []

    def cheapened_tables(word):
        # the cheapened greedy automaton, with its rows checked against a
        # direct scan of the word before they serve as the oracle
        def make():
            delta, cost = C.greedy_rows(word, 8)
            tab = C.tables(D.cheapen(D.build_greedy_dfa(word)))
            expect(tab.delta.tolist() == delta, "cheapened transitions differ from the greedy scan")
            C.check_permutation_rows(tab, 8, dominated=cost)
            return tab

        return lazy(make)

    def hist_of(dfa, start, L):
        if isinstance(dfa, D.SubsetDfa):
            return _hist_subset(dfa.alphabet_size, L)
        return _hist_rows(tabs[id(dfa)], dfa.alphabet_size, start, L)

    def exact_p(dfa, start, L, eps, hist=None):
        k = dfa.alphabet_size
        hist = hist or hist_of(dfa, start, L)
        name = f"exact_P/{type(dfa).__name__}/k{k}/L{L}/{len(ops)}"

        def check(p):
            want = C.share_at_most(hist(), C.cost_bound(k, L, eps))
            expect(p == want, f"{name}: {p} != {want}")

        ops.append(Op(name, lambda ctx: W.exact_P(dfa, start, L, float(eps)), check, {"exact_words": tree(k, L)}))

    def dists(dfa, start, L):
        k = dfa.alphabet_size
        name = f"cost_distributions/k{k}/L{L}/{len(ops)}"

        def check(out):
            expect(len(out) == L + 1, f"{name}: {len(out)} lengths")
            for l in range(L + 1):
                expect(dict(out[l]) == hist_of(dfa, start, l)(), f"{name}: length {l} differs")

        ops.append(Op(name, lambda ctx: W.cost_distributions_by_length(dfa, start, L), check, {"exact_words": tree(k, L)}))

    def census(name, make_dfa, hist):
        def check(out):
            expect(sum(out.values()) == math.factorial(8), f"{name}: total {sum(out.values())}")
            expect(out == hist(), f"{name}: census differs")

        ops.append(Op(name, lambda ctx: D.perm_cost_census(make_dfa()), check, {"census_perms": math.factorial(8)}))

    def cheap_count(dfa, budget, hist):
        name = f"cheap_perm_count/k{dfa.alphabet_size}/b{budget}/{len(ops)}"

        def check(out):
            want = sum(n for c, n in hist().items() if c <= budget)
            expect(out == want, f"{name}: {out} != prefix sum {want}")

        ops.append(Op(name, lambda ctx: D.cheap_perm_count(dfa, budget), check))

    # Full-length enumerations at k = 8. Each stays near 0.1 s so that its
    # best time over the passes can land in one of the host's fast spells.
    exact_p(sub[8], 0, 8, eps_subset(rng, 8, 8))
    census("census/subset8", lambda: sub[8], _hist_subset(8, 8))
    census("census/two_track8", lambda: two8, hist_of(two8, 0, 8))
    for i, d in enumerate(rand8):
        census(f"census/random8/{i}", lambda d=d: d, hist_of(d, 0, 8))
    for i, w in enumerate(words):
        tab = cheapened_tables(w)
        census(f"census/greedy8/{i}", lambda w=w: D.cheapen(D.build_greedy_dfa(w)), lambda tab=tab: C.brute_hist(tab(), 8, 0, 8))
    for d in rand8:
        exact_p(d, rng.randrange(10), 8, eps_walk(rng, 8, 8))
    exact_p(two8, rng.randint(-4, 4), 8, eps_walk(rng, 8, 8))
    exact_p(cheap8, 0, 8, eps_walk(rng, 8, 8))
    dists(sub[8], 0, 8)
    dists(rand8[0], rng.randrange(10), 8)
    eps_max = eps_walk(rng, 8, 6)

    def check_max(p):
        tab = tabs[id(randmax)]()
        bound = C.cost_bound(8, 6, eps_max)
        want = max(C.share_at_most(C.brute_hist(tab, 8, v, 6), bound) for v in tab.states)
        expect(p == want, f"exact_P_max: {p} != {want}")

    ops.append(Op("exact_P_max/random8/L6", lambda ctx: W.exact_P_max(randmax, 6, float(eps_max)), check_max, {"exact_words": 4 * tree(8, 6)}))

    # short queries: L = 4 at k = 12..14
    for k in (12, 13, 14):
        for _ in range(4):
            exact_p(sub[k], 0, 4, eps_subset(rng, k, 4))
    for _ in range(4):
        exact_p(two12, rng.randint(-6, 6), 4, eps_walk(rng, 12, 4))
        exact_p(rand12, rng.randrange(20), 4, eps_walk(rng, 12, 4))
    dists(sub[12], 0, 4)
    dists(sub[14], 0, 4)
    dists(two12, rng.randint(-6, 6), 4)
    dists(rand12, rng.randrange(20), 4)

    # tight budgets, L = 3, and single walks
    for _ in range(3):
        cheap_count(sub[9], rng.randint(9, 12), _hist_subset(9, 9))
    for d in (*rand8, two8, cheap8):
        cheap_count(d, rng.randint(8, 13), hist_of(d, 0, 8))
    for d in (sub[12], sub[13], sub[14]):
        exact_p(d, 0, 3, eps_subset(rng, d.alphabet_size, 3))
    exact_p(two12, rng.randint(-6, 6), 3, eps_walk(rng, 12, 3))
    exact_p(rand12, rng.randrange(20), 3, eps_walk(rng, 12, 3))
    for i in range(2):
        perm = random_perm(rng, 12)

        def check_subset_walk(tr, perm=perm):
            expect(tr.total_cost == sum(C.rank_costs(perm)), "subset walk cost differs from the rank sum")
            expect(tr.states[-1] == (1 << 12) - 1, "subset walk does not end at the full set")

        ops.append(Op(f"walk_cost/subset12/{i}", lambda ctx, p=perm: D.walk_cost(sub[12], 0, p), check_subset_walk))
        walk = random_perm(rng, 8)[:5]

        def check_greedy_walk(tr, walk=walk):
            expect(tr.total_cost == C.greedy_walk_total(words[1], walk), "greedy walk cost differs from the embedding scan")

        ops.append(Op(f"walk_cost/greedy8/{i}", lambda ctx, w=walk: D.walk_cost(greedy8, 0, w), check_greedy_walk))
    return ops


# ---------------------------------------------------------------------------
# monte_carlo


def _estimate_digest(rep) -> str:
    # the sampled result, without the interval scipy computes from it
    return C.fingerprint({k: v for k, v in rep.to_json_dict().items() if not k.startswith("ci_")})


def monte_carlo(lib, orc, seed: int) -> list[Op]:
    D, W = lib.dfa, lib.walks
    rng = random.Random(f"monte_carlo/{seed}")
    s12, s60 = D.build_subset_dfa(12), D.build_subset_dfa(60)
    two12 = D.build_two_track_dfa(12)
    rand12 = D.random_k_dfa(12, 50, rng.randrange(2**31))
    weighted10 = D.random_k_dfa(10, 40, rng.randrange(2**31))
    tabs = {id(d): lazy(lambda d=d: C.tables(d)) for d in (two12, rand12, weighted10)}
    ops: list[Op] = []

    def estimate(dfa, start, L, eps, n, mc_seed=None, threads=1, twin=None, recompute=False):
        k = dfa.alphabet_size
        subset = isinstance(dfa, D.SubsetDfa)
        mc_seed = rng.randrange(2**31) if mc_seed is None else mc_seed
        name = f"estimate_P/{type(dfa).__name__}/k{k}/L{L}/n{n}/t{threads}/{len(ops)}"

        def check(rep):
            hits = round(rep.estimate * n)
            expect(hits / n == rep.estimate, f"{name}: estimate is not a count over {n}")
            expect((rep.samples, rep.seed, rep.k, rep.L) == (n, mc_seed, k, L), f"{name}: echoed inputs differ")
            thr = (Fraction(1, 2) - Fraction(eps)) * k * L
            expect(C.close(rep.threshold, float(thr)), f"{name}: threshold {rep.threshold}")
            C.check_clopper_pearson(hits, n, rep.ci_low, rep.ci_high)
            bound = C.cost_bound(k, L, eps)
            if subset and start == 0:
                exact = float(C.share_at_most(C.subset_root_hist(k, L), bound))
                C.check_close_to(rep.estimate, exact, n, name)
            if recompute:
                if subset:
                    cost = lambda w: sum(C.rank_costs(w))
                else:
                    tab = tabs[id(dfa)]()
                    cost = lambda w: C.row_walk_total(tab, start, w)
                want = sum(1 for i in range(n) if cost(C.sampled_word(mc_seed, i, k, L)) <= bound)
                expect(hits == want, f"{name}: {hits} hits, stream re-derivation gives {want}")

        ops.append(
            Op(
                name,
                lambda ctx: W.estimate_P(dfa, start, L, float(eps), n, mc_seed, threads=threads),
                check,
                {"mc_samples": n, "threads": threads},
                twin=twin,
                digest=_estimate_digest,
            )
        )
        return name, mc_seed

    def paired(dfa, start, L, eps, n, recompute=False):
        name, mc_seed = estimate(dfa, start, L, eps, n, recompute=recompute)
        estimate(dfa, start, L, eps, n, mc_seed=mc_seed, threads=THREADS, twin=name)

    def concentration(dfa, M, eps_star, n, recompute=False):
        k = dfa.alphabet_size
        subset = isinstance(dfa, D.SubsetDfa)
        kind = "subset" if subset else "weighted"
        mc_seed = rng.randrange(2**31)
        name = f"concentration/{kind}/k{k}/M{M}/n{n}/{len(ops)}"
        keys = [(a, b) for a in range(1, M) for b in range(1, M)]

        def check(rep):
            expect(sorted(rep.con1) == keys and sorted(rep.con2) == keys, f"{name}: window pairs differ")
            for fam in (rep.con1, rep.con2):
                for v in fam.values():
                    expect(0 <= v <= 1 and abs(v * n - round(v * n)) < 1e-6, f"{name}: frequency {v}")
            if subset:
                # the minimum T statistic over subset states does not depend on
                # the sample; recompute it over all 2^k states for sample 0
                cost = C.subset_cost_matrix(k)
                word = C.sampled_word(mc_seed, 0, k, k)
                t_min = lambda j, x: int((cost[:, [t - 1 for t in word[: j - 1]]] <= x).sum(axis=1).min())
                for key in keys:
                    want = 1.0 if C.con2_event(t_min, k, M, *key, eps_star) else 0.0
                    expect(rep.con2[key] == want, f"{name}: con2{key} = {rep.con2[key]}, want {want}")
            if not recompute:
                return
            tab = None if subset else tabs[id(dfa)]()
            con1 = dict.fromkeys(keys, 0)
            con2 = dict.fromkeys(keys, 0)
            for i in range(n):
                word = C.sampled_word(mc_seed, i, k, k)
                ranks = C.rank_costs(word) if subset else C.x_ranks_by_rows(tab, dfa.root, word)
                if not subset:
                    le = {x: (tab.cost[:, [t - 1 for t in word]] <= x).cumsum(axis=1) for x in {m2 * k / M for m2 in range(1, M)}}
                    t_min = lambda j, x: 0 if j == 1 else int(le[x][:, j - 2].min())
                for key in keys:
                    con1[key] += C.con1_event(ranks, k, M, *key, eps_star)
                    if not subset:
                        con2[key] += C.con2_event(t_min, k, M, *key, eps_star)
            for key in keys:
                expect(round(rep.con1[key] * n) == con1[key], f"{name}: con1{key} differs from re-derivation")
                if not subset:
                    expect(round(rep.con2[key] * n) == con2[key], f"{name}: con2{key} differs from re-derivation")

        work_key = f"conc_{kind}_samples"
        ops.append(Op(name, lambda ctx: W.concentration_experiment(dfa, M, eps_star, n, mc_seed), check, {work_key: n}, digest=C.fingerprint))

    def x_sums(n, recompute):
        mc_seed = rng.randrange(2**31)
        k = 60
        name = f"sample_x_sums/subset60/n{n}/{len(ops)}"

        def check(out):
            expect(out.shape == (n,), f"{name}: shape {out.shape}")
            expect(int(out.min()) >= k and int(out.max()) <= k * (k + 1) // 2, f"{name}: sum out of range")
            mean = (k * k + 3 * k) / 4
            sd = math.sqrt(sum((m * m - 1) / 12 for m in range(1, k + 1)) / n)
            expect(abs(float(out.mean()) - mean) <= 6 * sd, f"{name}: mean {out.mean()} vs {mean}")
            for i in range(min(n, recompute)):
                want = sum(C.rank_costs(C.sampled_word(mc_seed, i, k, k)))
                expect(int(out[i]) == want, f"{name}: sample {i} is {out[i]}, re-derivation gives {want}")

        ops.append(Op(name, lambda ctx: W.sample_x_sums(s60, n, mc_seed), check, {"xsum_samples": n}, digest=C.fingerprint))

    def draws(streams, moduli):
        base = rng.randrange(2**31)

        def call(ctx):
            out = []
            for s in range(streams):
                r = W.CounterRng(base, s)
                out.extend(r.randrange(m) for m in moduli)
            return out

        def check(out):
            want = []
            for s in range(streams):
                st = C.Stream(base, s)
                want.extend(st.below(m) for m in moduli)
            expect(out == want, "CounterRng draws differ from the stream definition")

        ops.append(Op(f"CounterRng/{streams}x{len(moduli)}", call, check, {"rng_draws": streams * len(moduli)}, digest=C.fingerprint))

    # Large batches (>= 20k samples), the estimate repeated at threads=2, and
    # eight k = 60 estimates: thirteen ops of 30 ms or more put the pass's
    # tail (ten ops above it) among the k = 60 estimates, and the thirty
    # small batches hold p50.
    paired(s12, 0, 12, eps_subset(rng, 12, 12), 20000)
    concentration(s12, 3, rng.choice((0.2, 0.3, 0.4)), 20000)
    x_sums(2000, recompute=50)
    concentration(weighted10, 3, rng.choice((0.2, 0.3, 0.4)), 500, recompute=True)
    paired(s60, 0, 60, eps_subset(rng, 60, 60), 500, recompute=True)
    for _ in range(6):
        estimate(s60, 0, 60, eps_subset(rng, 60, 60), 500, recompute=True)
    # small batches (<= 500)
    draws(200, [rng.choice((3, 12, 60, 1000, 2**40 + 7)) for _ in range(100)])
    estimate(s60, 0, 30, eps_subset(rng, 60, 30), 500, recompute=True)
    x_sums(200, recompute=200)
    concentration(s12, 4, rng.choice((0.2, 0.3, 0.4)), 500, recompute=True)
    paired(rand12, rng.randrange(50), 12, eps_walk(rng, 12, 12), 500, recompute=True)
    for _ in range(4):
        estimate(two12, rng.randint(-6, 6), 12, eps_walk(rng, 12, 12), 500, recompute=True)
        estimate(rand12, rng.randrange(50), 12, eps_walk(rng, 12, 12), 400, recompute=True)
        estimate(weighted10, rng.randrange(40), 10, eps_walk(rng, 10, 10), 400, recompute=True)
        estimate(s12, 0, 8, eps_subset(rng, 12, 8), 300, recompute=True)
    for _ in range(3):
        estimate(s12, 0, 12, eps_subset(rng, 12, 12), 200, recompute=True)
        estimate(rand12, rng.randrange(50), 6, eps_walk(rng, 12, 6), 500, recompute=True)
    return ops


# ---------------------------------------------------------------------------
# pattern_census


def pattern_census(lib, orc, seed: int) -> list[Op]:
    P, B = lib.patterns, lib.bounds
    rng = random.Random(f"pattern_census/{seed}")
    ops: list[Op] = []
    anchors = {(3, 3): 1, (3, 4): 2, (3, 9): 6, (2, 9): 2, (2, 10): 2, (2, 11): 2}

    # Sizes fixed by the workload, not the seed: these and the two larger
    # searches below are thirteen ops of 1.5 ms and more, which hold the
    # pass's tail (ten ops above it) at the same ops on every seed.
    sizes = [(3, 3), (3, 4), (2, 9), (2, 10), (2, 11), (3, 6), (3, 7), (3, 8), (3, 9), (4, 6), (4, 7), (4, 8), (4, 9)]
    for k, n in sizes:

        def call(ctx, k=k, n=n):
            best, witness = P.f_oracle(k, n)
            ctx.setdefault("F", {})[(k, n)] = best
            return best, witness

        def check(out, k=k, n=n):
            best, witness = out
            if (k, n) in anchors:
                expect(best == anchors[(k, n)], f"f({k},{n}) = {best}, want {anchors[(k, n)]}")
            expect(len(witness.letters) == n and 0 <= best <= math.factorial(k), f"f({k},{n}): bad witness")
            expect(len(orc.brute_pattern_set(witness.letters, k)) == best, f"f({k},{n}): witness does not reach {best}")

        ops.append(Op(f"f_oracle/k{k}/n{n}", call, check, {"fo_words": C.stirling2_sum(n, k)}))

    for k, r, n_max in ((2, 2, 4), (2, 3, 4), (3, 4, 5), (3, 3, 6)):

        def check_search(rows, k=k, r=r, n_max=n_max):
            want, found = [], False
            for n in range(1, n_max + 1):
                found = found or any(orc.brute_is_superpattern(w, k) for w in orc.all_words(r, n))
                want.append((n, found))
            expect(rows == want, f"exhaustive_f_search({k},{r},{n_max}) = {rows}, want {want}")

        ops.append(Op(f"exhaustive_f_search/{k}/{r}/{n_max}", lambda ctx, a=(k, r, n_max): P.exhaustive_f_search(*a), check_search))

    for i in range(4):
        w = tuple(rng.randint(1, 5) for _ in range(10))

        def check_set(out, w=w):
            expect({p.images for p in out} == orc.brute_pattern_set(w, 4), f"pattern_set({w}, 4) differs")

        ops.append(Op(f"pattern_set/k4/{i}", lambda ctx, w=w: P.pattern_set(w, 4), check_set))
    for i in range(8):
        w = tuple(rng.randint(1, 6) for _ in range(12))
        probes = [random_perm(rng, 5) for _ in range(2)]

        def check_big(out, w=w, probes=probes):
            got = {p.images for p in out}
            expect(len(got) <= 120, "more than 5! patterns")
            for tau in probes + sorted(got)[:1]:
                expect((tau in got) == orc.brute_is_pattern(w, tau), f"pattern_set({w}, 5) wrong about {tau}")

        ops.append(Op(f"pattern_set/k5/{i}", lambda ctx, w=w: P.pattern_set(w, 5), check_big))
    for i in range(3):
        w = tuple(rng.randint(1, 3) for _ in range(8))
        ops.append(
            Op(
                f"is_superpattern/k3/{i}",
                lambda ctx, w=w: P.is_superpattern(w, 3),
                lambda out, w=w: expect(out == orc.brute_is_superpattern(w, 3), f"is_superpattern({w}, 3)"),
            )
        )
    # Containment on seeded words: forty ops whose median is the pass's p50.
    # Each op is a batch of queries spread over several words, so that its
    # cost is an average that varies little from op to op and from seed to
    # seed, and sits above the seeded pattern_set ops.
    for i in range(16):
        queries = [(tuple(rng.randint(1, 7) for _ in range(14)), random_perm(rng, 4 + j % 2)) for j in range(16) for _ in range(2)]
        ops.append(
            Op(
                f"is_pattern/{i}",
                lambda ctx, q=queries: [P.is_pattern(w, t) for w, t in q],
                lambda out, q=queries: expect(out == [orc.brute_is_pattern(w, t) for w, t in q], f"is_pattern({q})"),
            )
        )
        queries = queries[::2]

        def check_emb(out, q=queries):
            want = [next(iter(orc.brute_embeddings(w, t)), None) for w, t in q]
            expect(out == want, f"find_embedding({q}) = {out}, want {want}")

        ops.append(Op(f"find_embedding/{i}", lambda ctx, q=queries: [P.find_embedding(w, t) for w, t in q], check_emb))
    for i in range(8):
        queries = [(tuple(rng.randint(1, 5) for _ in range(10)), random_perm(rng, 4), rng.random() < 0.5) for _ in range(8)]

        def check_circ(out, q=queries):
            want = [brute_circular(orc, w, tau, both) for w, tau, both in q]
            expect(out == want, f"circular_contains({q})")

        ops.append(Op(f"circular_contains/{i}", lambda ctx, q=queries: [P.circular_contains(w, t, b) for w, t, b in q], check_circ))

    # certificates fed from this pass's census results
    for k, n in ((3, 3), (3, 4), (3, 9), (4, 7), (4, 8), (4, 9)):
        r = rng.randint(k, k + 3)

        def infeas(ctx, k=k, n=n, r=r):
            F = ctx["F"][(k, n)]
            return F, B.infeasibility(k, r, n, math.log(F))

        def gupta(ctx, k=k, n=n):
            F = ctx["F"][(k, n)]
            return F, B.gupta_check(k, n, math.log(F))

        ops.append(Op(f"infeasibility/{k}/{r}/{n}", infeas, lambda out, k=k, r=r: expect(out[1] == C.infeasible(k, r, out[0]), f"infeasibility {k},{r},F={out[0]}")))
        ops.append(Op(f"gupta_check/{k}/{n}", gupta, lambda out, k=k, n=n: expect(out[1] == C.gupta_holds(k, n, out[0]), f"gupta {k},{n},F={out[0]}")))
    return ops


# ---------------------------------------------------------------------------
# cli_oneshot: the README's fast subcommands, checked on their JSON


def _bounds_ops(rng):
    k = rng.randint(6, 40)
    L = rng.randint(1, k)
    eps = f"{rng.uniform(0.05, 0.45):.3f}"
    eps_star = f"{rng.uniform(0.05, 0.45):.3f}"
    alpha = f"{rng.uniform(0.05, 0.5):.3f}"
    M = rng.randint(2, 6)
    ks, rs = rng.randint(3, 4), rng.randint(3, 6)
    ns = rng.randint(3, 9)
    F = rng.randint(1, 6)
    e, es, a = float(eps), float(eps_star), float(alpha)
    return {
        "forL": (
            ["--k", k, "--L", L, "--epsilon", eps],
            lambda d: expect(C.close(d["log_value"], C.log_birthday(k, L) - e * e * L / 4), "forL"),
        ),
        "birthday": (
            ["--k", k, "--L", L, "--alpha", alpha],
            lambda d: expect(
                C.close(d["log_ratio"], C.log_birthday(k, L)) and C.close(d["log_bound"], (a * a / 2 + a**3 / 4) * k),
                "birthday",
            ),
        ),
        "theorem-constants": (
            ["--epsilon-star", eps_star],
            lambda d: expect(
                C.close(d["epsilon"], 2 * es / 3)
                and C.close(d["alpha"], math.sqrt((2 * es / 3) ** 2 / 2 + 1) - 1)
                and C.close(d["c0"], (2 * es / 3) ** 2 * d["alpha"] / 8),
                "theorem-constants",
            ),
        ),
        "hoeffding-x": (
            ["--k", k, "--epsilon", eps],
            lambda d: expect(C.close(d["log_value"], -32 * e * e * k / 3), "hoeffding-x"),
        ),
        "infeasibility": (
            ["--k", ks, "--r", rs, "--n", ns, "--f", F],
            lambda d: expect(d["certified"] == C.infeasible(ks, rs, F), "infeasibility"),
        ),
        "gupta": (
            ["--k", ks, "--n", ns, "--f", F],
            lambda d: expect(d["necessary_condition_holds"] == C.gupta_holds(ks, ns, F), "gupta"),
        ),
        "loworder": (
            ["--k", k, "--epsilon", eps],
            lambda d: expect(d["hypothesis_holds"] == (e**4 > (33 + 132 * math.log(k)) / k), "loworder"),
        ),
        "con": (
            ["--epsilon-star", eps_star, "--M", M],
            lambda d: expect(C.close(d["c_con1"], 0.5 * (es / M) ** 2) and d["c_con2_sup"] == d["c_con1"], "con"),
        ),
    }


def cli_oneshot(lib, orc, seed: int) -> list[Op]:
    rng = random.Random(f"cli_oneshot/{seed}")
    ops: list[Op] = []

    def add(name, argv, check):
        ops.append(Op(name, None, check, argv=[str(a) for a in argv]))

    word = tuple(rng.randint(1, 5) for _ in range(8))
    tau = random_perm(rng, 3)

    def check_contains(d):
        expect(d["contains"] == orc.brute_is_pattern(word, tau), "contains")
        embs = orc.brute_embeddings(word, tau)
        expect(d["witness"] == (list(embs[0]) if embs else None), "contains witness")

    add("contains", ["contains", "--word", *word, "--perm", *tau], check_contains)

    w4 = tuple(rng.randint(1, 4) for _ in range(8))
    want4 = orc.brute_pattern_set(w4, 3)
    add("census", ["census", "--word", *w4, "--k", 3, "--list"],
        lambda d: expect(d["count"] == len(want4) and {tuple(p) for p in d["patterns"]} == want4, "census"))

    w3 = tuple(rng.randint(1, 3) for _ in range(9))
    add("superpattern", ["superpattern", "--word", *w3, "--k", 3],
        lambda d: expect(d["superpattern"] == orc.brute_is_superpattern(w3, 3), "superpattern"))

    n = rng.choice((3, 4, 9))
    add(f"f-oracle/n{n}", ["f-oracle", "--k", 3, "--n", n],
        lambda d: expect(d["max_count"] == {3: 1, 4: 2, 9: 6}[n], "f-oracle anchor"))

    gw = covering_word(rng, 4, 7)
    delta, cost = C.greedy_rows(gw, 4)

    def check_build(d):
        expect(d["states"] == list(range(len(gw) + 1)) and d["root"] == 0, "dfa build states")
        for row in d["rows"]:
            v = row["state"]
            for e in row["edges"]:
                c = cost[v][e["letter"] - 1]
                expect(e["next"] == delta[v][e["letter"] - 1] and e["cost"] == ("inf" if c == math.inf else c), "dfa build edge")

    add("dfa-build", ["dfa", "build", "greedy", "--word", *gw], check_build)

    budget = rng.randint(5, 10)
    hist5 = C.subset_root_hist(5, 5)

    def check_census(d):
        expect({e["cost"]: e["count"] for e in d["census"]} == hist5, "dfa census")
        expect(d["count_within_budget"] == sum(m for c, m in hist5.items() if c <= budget), "dfa census budget")

    add("dfa-census", ["dfa", "census", "subset", "--k", 5, "--budget", budget], check_census)

    def check_cheapen(d):
        for row in d["rows"]:
            v = row["state"]
            costs = [e["cost"] for e in row["edges"]]
            expect(sorted(costs) == [1, 2, 3, 4], "cheapened row is not a permutation")
            expect(all(a <= b for a, b in zip(costs, cost[v])), "cheapened row costs more")

    add("cheapen", ["cheapen", "greedy", "--word", *gw], check_cheapen)

    walk = random_perm(rng, 4)[:3]
    want_walk = C.greedy_walk_total(gw, walk)
    add("walk", ["walk", "greedy", "--word", *gw, "--walk-word", *walk],
        lambda d: expect(d["total_cost"] == ("inf" if want_walk == math.inf else want_walk), "walk"))

    eps = eps_subset(rng, 5, 5)

    def check_exact(d):
        want = C.share_at_most(hist5, C.cost_bound(5, 5, eps))
        expect(Fraction(d["p_numerator"], d["p_denominator"]) == want, "exact-p")

    add("exact-p", ["exact-p", "--dfa", "subset", "--k", 5, "--L", 5, "--epsilon", eps], check_exact)

    perm = random_perm(rng, 5)
    ranks = C.rank_costs(perm)
    add("decompose", ["decompose", "--dfa", "subset", "--k", 5, "--perm", *perm],
        lambda d: expect(d["x_ranks"] == ranks and d["y_total"] == 0 and d["total_cost"] == sum(ranks), "decompose"))

    table = _bounds_ops(rng)
    which = rng.choice(sorted(table))
    args, check = table[which]
    add(f"bounds-{which}", ["bounds", which, *args], check)

    bw = tuple(rng.randint(1, 4) for _ in range(7))
    bt = random_perm(rng, 3)
    both = rng.random() < 0.5
    want_bcp = brute_circular(orc, bw, bt, both)
    add("bcp", ["bcp", "--word", *bw, "--perm", *bt, *(["--bidirectional"] if both else [])],
        lambda d: expect(d["contains"] == want_bcp, "bcp"))
    return ops


BUILDERS = {
    "cli_oneshot": cli_oneshot,
    "exact_enum": exact_enum,
    "monte_carlo": monte_carlo,
    "pattern_census": pattern_census,
}
