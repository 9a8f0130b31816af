"""Brute-force reference implementations used to check the library.

Everything here works on plain token lists and dicts, straight from the
defining formulas, and deliberately shares no code with the package.
"""

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
