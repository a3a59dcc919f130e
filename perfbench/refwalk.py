"""Independent reference for the benchmark's output checks.

Nothing here imports ``szwalk``: the chains are rebuilt from their textbook
definitions and the walk runs matrix-free on the N x N amplitude array
``A[i, j] = <i, j|psi>``.  One Szegedy step ``S (2 Pi - I)`` is

    c_i = <phi_i | A_i>,   A <- (2 c phi - A)^T

where row ``phi_i`` is the entrywise square root of column i of P
(column-stochastic, ``P[i, j]`` = probability of j -> i).
"""

import numpy as np

# Edges j -> i of the paper's 8-vertex directed example:
# a directed 4-cycle 0->1->2->3->0 fed by 4 and 5, and 6, 7 linking to 4..7.
DIRECTED8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 2), (5, 3),
                   *((s, d) for s in (6, 7) for d in (4, 5, 6, 7)))


def cycle(n):
    p = np.zeros((n, n))
    for j in range(n):
        p[(j + 1) % n, j] += 0.5
        p[(j - 1) % n, j] += 0.5
    return p


def complete(n):
    return (np.ones((n, n)) - np.eye(n)) / (n - 1)


def circulant(column):
    """Column i is ``column`` rotated down by i slots."""
    return np.stack([np.roll(column, i) for i in range(column.size)], axis=1)


def google(links, n, alpha=0.85):
    """alpha * E + (1 - alpha)/n * J, with E the out-degree normalised link
    matrix and dangling vertices linking uniformly to every vertex."""
    e = np.zeros((n, n))
    for src, dst in links:
        e[dst, src] = 1.0
    out = e.sum(axis=0)
    e[:, out == 0] = 1.0
    e /= e.sum(axis=0)
    return alpha * e + (1.0 - alpha) / n


def wheel_links(n_outer, directed=False):
    """W_N: an undirected N-cycle plus hub N linked from every outer vertex;
    the hub links back to all of them unless ``directed`` (W_N')."""
    links = [(j, (j + d) % n_outer) for j in range(n_outer) for d in (1, -1)]
    links += [(j, n_outer) for j in range(n_outer)]
    if not directed:
        links += [(n_outer, j) for j in range(n_outer)]
    return links


def walk_step(a, phi):
    """One application of S (2 Pi - I) to the amplitude array ``a``."""
    c = np.einsum("ij,ij->i", phi, a)
    return (2.0 * c[:, None] * phi - a).T


def pagerank_series(p, steps):
    """Q(j, t) = sum_i |A_t[i, j]|^2 for t = 0..steps-1, one double step apart."""
    n = p.shape[0]
    phi = np.sqrt(p).T
    a = phi / np.sqrt(n)
    q = np.empty((steps, n))
    for t in range(steps):
        q[t] = (a * a).sum(axis=0)
        a = walk_step(walk_step(a, phi), phi)
    return q
