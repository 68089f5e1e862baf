"""Straight-line reference implementation of the classifier math.

Pure-Python floats and explicit loops, independent of the package
internals; used as the oracle for equivalence checks.
"""
import math


def memberships(x, protos, m):
    d = [math.dist(x, p) for p in protos]
    if any(v == 0.0 for v in d):
        hits = [i for i, v in enumerate(d) if v == 0.0]
        return [1.0 / len(hits) if i in hits else 0.0 for i in range(len(protos))]
    e = 2.0 / (m - 1.0)
    return [
        1.0 / sum((d[k] / d[q]) ** e for q in range(len(protos)))
        for k in range(len(protos))
    ]


def interval_memberships(x, protos, m1, m2):
    a = memberships(x, protos, m1)
    b = memberships(x, protos, m2)
    lower = [min(u, v) for u, v in zip(a, b)]
    upper = [max(u, v) for u, v in zip(a, b)]
    return lower, upper


def power_mean(vals, p):
    if p < 0 and any(v == 0.0 for v in vals):
        return 0.0
    return (sum(v**p for v in vals) / len(vals)) ** (1.0 / p)


def certainty(train_x, train_y, protos, m1, m2, num_classes):
    c = len(protos)
    num = [[0.0] * num_classes for _ in range(c)]
    den = [0.0] * c
    for x, y in zip(train_x, train_y):
        lo, up = interval_memberships(x, protos, m1, m2)
        for k in range(c):
            u = 0.5 * (lo[k] + up[k])
            num[k][y] += u
            den[k] += u
    return [[num[k][j] / den[k] for j in range(num_classes)] for k in range(c)]


def scores(x, protos, cert, m1, m2, p):
    lo, up = interval_memberships(x, protos, m1, m2)
    num_classes = len(cert[0])
    out = []
    for j in range(num_classes):
        bl, bu = [], []
        for k in range(len(protos)):
            upper = up[k] * cert[k][j]
            if upper > 0.0:
                bl.append(lo[k] * cert[k][j])
                bu.append(upper)
        if not bu:
            out.append(0.0)
        else:
            out.append(0.5 * (power_mean(bl, p) + power_mean(bu, p)))
    return out


def predict(x, protos, cert, m1, m2, p):
    s = scores(x, protos, cert, m1, m2, p)
    return s.index(max(s)), s


def subtractive_cluster(points, r_a, rb_ratio=1.25, accept_ratio=0.5, reject_ratio=0.15):
    """Chiu's subtractive clustering loop; returns (centers, decisions).

    ``centers`` lists the accepted points in order. ``decisions`` lists one
    (kind, margin) per comparison that steered the loop: "argmax" (the
    candidate's lead over the best point not coincident with it), "reject",
    "accept" and "d_min" (the distance of the compared value from its
    threshold).
    """
    alpha = 4.0 / r_a**2
    beta = 4.0 / (rb_ratio * r_a) ** 2

    def sq(x, y):
        return sum((u - v) ** 2 for u, v in zip(x, y))

    P = [sum(math.exp(-alpha * sq(x, y)) for y in points) for x in points]
    first = max(P)
    live = list(range(len(points)))
    centers, decisions = [], []
    while live:
        k = max(live, key=lambda i: (P[i], -i))
        peak = P[k]
        live.remove(k)
        rivals = [P[i] for i in live if points[i] != points[k]]
        if rivals:
            decisions.append(("argmax", peak - max(rivals)))
        decisions.append(("reject", abs(peak - reject_ratio * first)))
        if peak < reject_ratio * first:
            break
        decisions.append(("accept", abs(peak - accept_ratio * first)))
        if peak < accept_ratio * first:
            d_min = min(math.dist(points[k], c) for c in centers)
            test = d_min / r_a + peak / first
            decisions.append(("d_min", abs(test - 1.0)))
            if test < 1.0:
                continue
        centers.append(points[k])
        P = [p - peak * math.exp(-beta * sq(x, points[k])) for p, x in zip(P, points)]
    return centers, decisions
