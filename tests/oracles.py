"""Brute-force reference implementations used to check the library.

Everything here works on plain token lists and dicts, straight from the
defining formulas, and deliberately shares no code with the package.
"""

import math
import re
from collections import Counter
from itertools import combinations
from math import asin, atan2, cos, floor, log2, radians, sin, sqrt

import numpy as np


def dist_of(tokens):
    counts = Counter(tokens)
    total = sum(counts.values())
    return {w: c / total for w, c in counts.items()}, total


def pooled_dist(docs):
    counts = Counter()
    for tokens in docs:
        counts.update(tokens)
    total = sum(counts.values())
    return {w: c / total for w, c in counts.items()}, total


def kl(p, m):
    return sum(pw * log2(pw / m[w]) for w, pw in p.items() if pw > 0)


def oracle_jsd(p, q, pi1, pi2):
    m = {}
    for w in set(p) | set(q):
        m[w] = pi1 * p.get(w, 0.0) + pi2 * q.get(w, 0.0)
    return pi1 * kl(p, m) + pi2 * kl(q, m)


def oracle_contribution(pw, qw, pi1, pi2):
    """Literal per-word term: -m*log2(m) + pi1*p*log2(p) + pi2*q*log2(q)."""
    m = pi1 * pw + pi2 * qw
    value = 0.0
    if m > 0:
        value -= m * log2(m)
    if pw > 0:
        value += pi1 * pw * log2(pw)
    if qw > 0:
        value += pi2 * qw * log2(qw)
    return value


def oracle_contributions(p, q, pi1, pi2):
    return {
        w: oracle_contribution(p.get(w, 0.0), q.get(w, 0.0), pi1, pi2)
        for w in set(p) | set(q)
    }


def proportional_weights(total_p, total_q):
    s = total_p + total_q
    return total_p / s, total_q / s


def oracle_newness_epsilon(docs):
    pooled = []
    for i in range(len(docs)):
        rest = [d for j, d in enumerate(docs) if j != i]
        p, tp = pooled_dist(rest)
        q, tq = dist_of(docs[i])
        pi1, pi2 = proportional_weights(tp, tq)
        for value in oracle_contributions(p, q, pi1, pi2).values():
            if value > 0:
                pooled.append(value)
    return sum(pooled) / len(pooled) if pooled else 0.0


def oracle_newness(docs, variation, lambda1=0.8, lambda2=0.2):
    eps = oracle_newness_epsilon(docs)
    p, tp = pooled_dist(docs)
    q, tq = dist_of(variation)
    pi1, pi2 = proportional_weights(tp, tq)
    contribs = oracle_contributions(p, q, pi1, pi2)
    appeared = sum(
        1 for w in q if q[w] > p.get(w, 0.0) and contribs[w] > eps
    )
    disappeared = sum(
        1 for w in p if p[w] > q.get(w, 0.0) and contribs[w] > eps
    )
    appearance = appeared / len(q)
    disappearance = disappeared / len(p)
    return appearance, disappearance, lambda1 * appearance + lambda2 * disappearance


def oracle_uniqueness(docs, variation):
    p, tp = pooled_dist(docs)
    q, tq = dist_of(variation)
    pi1, pi2 = proportional_weights(tp, tq)
    return oracle_jsd(p, q, pi1, pi2)


def oracle_difference_epsilon(docs):
    values = []
    for a, b in combinations(docs, 2):
        pa, _ = dist_of(a)
        pb, _ = dist_of(b)
        values.append(oracle_jsd(pa, pb, 0.5, 0.5))
    return sum(values) / len(values)


def oracle_difference(docs, variation):
    eps = oracle_difference_epsilon(docs)
    q, _ = dist_of(variation)
    over = 0
    for tokens in docs:
        p, _ = dist_of(tokens)
        if oracle_jsd(p, q, 0.5, 0.5) > eps:
            over += 1
    return over / len(docs)


def oracle_ppmi(docs, window=3):
    unigrams = Counter()
    pair_counts = Counter()
    for tokens in docs:
        unigrams.update(tokens)
        for i in range(len(tokens)):
            for j in range(i + 1, min(i + window, len(tokens))):
                pair_counts[tuple(sorted((tokens[i], tokens[j])))] += 1
    total = sum(unigrams.values())
    pair_total = sum(pair_counts.values())
    pairs = {}
    for (a, b), c in pair_counts.items():
        pmi = log2((c / pair_total) / ((unigrams[a] / total) * (unigrams[b] / total)))
        if pmi > 0:
            pairs[(a, b)] = pmi
    return pairs, set(unigrams), pair_total


def oracle_new_surprise(kb_docs, variation, window=3):
    kb_pairs, kb_vocab, _ = oracle_ppmi(kb_docs, window)
    var_pairs, _, _ = oracle_ppmi([variation], window)
    if not var_pairs:
        return 0.0
    novel = sum(
        1
        for (a, b) in var_pairs
        if a not in kb_vocab or b not in kb_vocab or (a, b) not in kb_pairs
    )
    return novel / len(var_pairs)


def _rows(pairs, vocab):
    rows = {w: {} for w in vocab}
    for (a, b), v in pairs.items():
        if a in rows:
            rows[a][b] = v
        if b in rows and a != b:
            rows[b][a] = v
    return rows


def oracle_divergent_surprise(kb_docs, variation, window=3):
    kb_pairs, kb_vocab, _ = oracle_ppmi(kb_docs, window)
    var_pairs, var_vocab, _ = oracle_ppmi([variation], window)
    shared = kb_vocab & var_vocab
    kb_rows = _rows(kb_pairs, shared)
    var_rows = _rows(var_pairs, shared)
    values = []
    for w in shared:
        row_p, row_q = kb_rows[w], var_rows[w]
        if not row_p or not row_q:
            continue
        sp = sum(row_p.values())
        sq = sum(row_q.values())
        p = {k: v / sp for k, v in row_p.items()}
        q = {k: v / sq for k, v in row_q.items()}
        values.append(oracle_jsd(p, q, 0.5, 0.5))
    return sum(values) / len(values) if values else 0.0


# The scalar reference: the package's metric and calibration code before it
# was vectorized, one Python call per word term, on token lists. The package
# makes the same float operations per word and sums them exactly rounded,
# so tests compare it with these by ==, not within a tolerance.


def _scalar_term(p, q, pi1, pi2):
    if p == q:
        return 0.0
    m = pi1 * p + pi2 * q
    term = 0.0
    if p > 0.0:
        term += pi1 * p * math.log2(p / m)
    if q > 0.0:
        term += pi2 * q * math.log2(q / m)
    return term if term > 0.0 else 0.0


def _scalar_clamp(total):
    if total < 0.0:
        return 0.0
    return min(total, 1.0)


def scalar_jsd(p, q, pi1, pi2):
    """JSD of two {word: probability} dicts, summed with fsum and clamped."""
    terms = [_scalar_term(p.get(w, 0.0), q.get(w, 0.0), pi1, pi2) for w in set(p) | set(q)]
    return _scalar_clamp(math.fsum(terms))


def scalar_contributions(p, q, pi1, pi2):
    """(word, term, side) per word of the union; side is "Q", "P" or "NEUTRAL"."""
    out = []
    for w in sorted(set(p) | set(q)):
        pw, qw = p.get(w, 0.0), q.get(w, 0.0)
        side = "Q" if qw > pw else "P" if pw > qw else "NEUTRAL"
        out.append((w, _scalar_term(pw, qw, pi1, pi2), side))
    return out


def scalar_newness_threshold(docs):
    pooled = []
    for i, held in enumerate(docs):
        p, tp = pooled_dist([d for j, d in enumerate(docs) if j != i])
        q, tq = dist_of(held)
        pi1, pi2 = proportional_weights(tp, tq)
        pooled.extend(v for _, v, _ in scalar_contributions(p, q, pi1, pi2) if v > 0.0)
    if not pooled:
        return 0.0
    return math.fsum(pooled) / len(pooled)


def scalar_difference_threshold(docs):
    dists = [dist_of(d)[0] for d in docs]
    values = [scalar_jsd(a, b, 0.5, 0.5) for a, b in combinations(dists, 2)]
    return math.fsum(values) / len(values)


def scalar_newness(docs, variation, lambda1=0.8, lambda2=0.2):
    eps = scalar_newness_threshold(docs)
    p, tp = pooled_dist(docs)
    q, tq = dist_of(variation)
    pi1, pi2 = proportional_weights(tp, tq)
    appeared = disappeared = 0
    for _, value, side in scalar_contributions(p, q, pi1, pi2):
        if value > eps:
            appeared += side == "Q"
            disappeared += side == "P"
    appearance = appeared / len(q)
    disappearance = disappeared / len(p)
    return appearance, disappearance, lambda1 * appearance + lambda2 * disappearance


def scalar_uniqueness(docs, variation):
    p, tp = pooled_dist(docs)
    q, tq = dist_of(variation)
    return scalar_jsd(p, q, *proportional_weights(tp, tq))


def scalar_difference(docs, variation):
    eps = scalar_difference_threshold(docs)
    q, _ = dist_of(variation)
    exceeding = sum(1 for d in docs if scalar_jsd(dist_of(d)[0], q, 0.5, 0.5) > eps)
    return exceeding / len(docs)


def scalar_divergent_surprise(kb_docs, variation, window=3):
    kb_pairs, kb_vocab, _ = oracle_ppmi(kb_docs, window)
    var_pairs, var_vocab, _ = oracle_ppmi([variation], window)
    shared = kb_vocab & var_vocab
    kb_rows = _rows(kb_pairs, shared)
    var_rows = _rows(var_pairs, shared)
    values = []
    for w in sorted(shared):
        if not kb_rows[w] or not var_rows[w]:
            continue
        kb_mass, var_mass = math.fsum(kb_rows[w].values()), math.fsum(var_rows[w].values())
        p = {k: v / kb_mass for k, v in kb_rows[w].items()}
        q = {k: v / var_mass for k, v in var_rows[w].items()}
        values.append(scalar_jsd(p, q, 0.5, 0.5))
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


def scalar_score_all(docs, variation, window=3, lambda1=0.8, lambda2=0.2):
    """The seven NoveltyScores fields, in their order."""
    return scalar_newness(docs, variation, lambda1, lambda2) + (
        scalar_uniqueness(docs, variation),
        scalar_difference(docs, variation),
        oracle_new_surprise(docs, variation, window),  # pair counting, no per-word term
        scalar_divergent_surprise(docs, variation, window),
    )


def oracle_rbo(list_a, list_b, p):
    """Depth-by-depth overlap summation with the standard extrapolation."""
    short, long_ = sorted((list(list_a), list(list_b)), key=len)
    s, l = len(short), len(long_)
    overlaps = {}
    for d in range(1, l + 1):
        overlaps[d] = len(set(short[:d]) & set(long_[:d]))
    sum1 = sum(overlaps[d] / d * p**d for d in range(1, l + 1))
    sum2 = sum(
        overlaps[s] * (d - s) / (s * d) * p**d for d in range(s + 1, l + 1)
    )
    sum3 = ((overlaps[l] - overlaps[s]) / l + overlaps[s] / s) * p**l
    return (1 - p) / p * (sum1 + sum2) + sum3


def oracle_kendall_tau(x, y):
    """Tau-b and its tie-adjusted normal p, one pair at a time; None if a series is all tied.

    Signs come from comparisons, so huge values cannot overflow, and ties are
    counted by equality, so -0.0 ties 0.0. The variance is Kendall's with
    both tie corrections, in the same float steps as the library's.
    """
    n = len(x)
    s = 0
    for i, j in combinations(range(n), 2):
        s += ((x[j] > x[i]) - (x[j] < x[i])) * ((y[j] > y[i]) - (y[j] < y[i]))
    ties_x = [c for c in Counter(x).values() if c > 1]
    ties_y = [c for c in Counter(y).values() if c > 1]
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in ties_x)
    n2 = sum(u * (u - 1) // 2 for u in ties_y)
    if n1 == n0 or n2 == n0:
        return None
    tau = max(-1.0, min(1.0, s / math.sqrt((n0 - n1) * (n0 - n2))))
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in ties_x)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in ties_y)
    v1 = sum(t * (t - 1) for t in ties_x) * sum(u * (u - 1) for u in ties_y) / (2.0 * n * (n - 1))
    v2 = (
        sum(t * (t - 1) * (t - 2) for t in ties_x)
        * sum(u * (u - 1) * (u - 2) for u in ties_y)
        / (9.0 * n * (n - 1) * (n - 2))
    )
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    if var <= 0.0:
        return tau, 1.0
    return tau, math.erfc(abs(s / math.sqrt(var)) / math.sqrt(2.0))


def oracle_haversine(lat1, lon1, lat2, lon2, radius=6371.0):
    """Great-circle distance via the atan2 formulation."""
    p1, p2 = radians(lat1), radians(lat2)
    dphi = radians(lat2 - lat1)
    dlmb = radians(lon2 - lon1)
    a = sin(dphi / 2) ** 2 + cos(p1) * cos(p2) * sin(dlmb / 2) ** 2
    return radius * 2 * atan2(sqrt(a), sqrt(1 - a))


def oracle_mediate(t, m, y, n_boot, seed):
    """Product-of-coefficients mediation, one lstsq pair per bootstrap replicate.

    Returns {"acme", "ade", "total"} point estimates and, for n_boot > 0, the
    2.5/97.5 percentile interval and sign-count p-value of each effect under
    the keys "<effect>_ci" and "<effect>_p".
    """
    t, m, y = (np.asarray(v, dtype=float) for v in (t, m, y))

    def effects(ts, ms, ys):
        ones = np.ones(len(ts))
        a = np.linalg.lstsq(np.column_stack([ones, ts]), ms, rcond=None)[0][1]
        coef = np.linalg.lstsq(np.column_stack([ones, ts, ms]), ys, rcond=None)[0]
        return float(a) * float(coef[2]), float(coef[1])

    acme, ade = effects(t, m, y)
    out = {"acme": acme, "ade": ade, "total": acme + ade}
    if n_boot <= 0:
        return out
    n = len(t)
    samples = {"acme": [], "ade": [], "total": []}
    for child in np.random.SeedSequence(seed).spawn(n_boot):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        a_b, c_prime = effects(t[idx], m[idx], y[idx])
        samples["acme"].append(a_b)
        samples["ade"].append(c_prime)
        samples["total"].append(a_b + c_prime)
    for name, values in samples.items():
        values = np.array(values)
        lo, hi = np.percentile(values, [2.5, 97.5])
        out[f"{name}_ci"] = (float(lo), float(hi))
        below = np.mean(values <= 0.0)
        above = np.mean(values >= 0.0)
        out[f"{name}_p"] = min(1.0, 2.0 * float(min(below, above)))
    return out


def oracle_detect_country(title, registry):
    """One regex search per (title, surface); the longest whole-word surface
    wins, and equal lengths go to the smallest ISO."""
    title_lower = title.lower()
    best = None  # (-match length, iso), minimized
    for record in registry.records():
        for surface in record.surfaces:
            m = re.search(rf"(?<!\w){re.escape(surface.lower())}(?!\w)", title_lower)
            if m is None:
                continue
            key = (-(m.end() - m.start()), record.iso)
            if best is None or key < best:
                best = key
    return best[1] if best else None
