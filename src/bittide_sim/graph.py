"""Oriented-graph representation and the spectral quantities built on it.

The network is an undirected connected graph; each edge carries an
orientation used purely as a sign convention for the incidence matrix B.
spectral_data forms the Laplacian L = B B^T and keeps its eigenpairs, whose
second column is the Fiedler vector, and its pseudo-inverse, from which
resistance_matrix forms the resistance distances.

All values are immutable after construction and safe to share.
"""

from typing import NamedTuple

import numpy as np

# relative thresholds: zero eigenvalue, negligible vector entry
_ZERO_EIG_TOL = 1e-9
_SIGN_TOL = 1e-12


class NotConnectedError(ValueError):
    """The underlying undirected graph is not connected."""


class _GraphFields(NamedTuple):
    n: int
    edges: tuple = ()


class OrientedGraph(_GraphFields):
    """Undirected graph with per-edge orientation.

    Nodes are 0..n-1; edges is an ordered list of (source, target) pairs.
    Edge order defines the column numbering of the incidence matrix, and
    for each edge (u, v) the directed links (u -> v) and (v -> u) get
    consecutive slots 2l and 2l+1 in the directed-link numbering.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges=()):
        self = super().__new__(cls, n, tuple((int(u), int(v)) for u, v in edges))
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n={self.n}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate undirected edge {key}")
            seen.add(key)
        return self

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.edges)

    def directed_links(self):
        """All 2m directed links as (sender, receiver) pairs.

        Link 2l is edge l in its stored orientation, link 2l+1 the reverse.
        The buffer for link (j, i) sits at receiver i and is fed by j.
        """
        links = []
        for u, v in self.edges:
            links.append((u, v))
            links.append((v, u))
        return links

    def is_connected(self) -> bool:
        """Union-find connectivity check on the undirected edges."""
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        root = find(0)
        return all(find(i) == root for i in range(self.n))


def complete(n: int) -> OrientedGraph:
    """Complete graph K_n, edges oriented lower index -> higher index."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return OrientedGraph(n, tuple(edges))


def path(n: int) -> OrientedGraph:
    """Path graph 0-1-...-(n-1)."""
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def mesh(rows: int, cols: int) -> OrientedGraph:
    """Rectangular grid graph with row-major node numbering.

    Node (r, c) is index r*cols + c; edges run lower index -> higher index.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"mesh needs rows*cols >= 2, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return OrientedGraph(rows * cols, tuple(edges))


def incidence_matrix(g: OrientedGraph) -> np.ndarray:
    """n x m incidence matrix: +1 at the source, -1 at the target of each edge."""
    b = np.zeros((g.n, g.m))
    for l, (u, v) in enumerate(g.edges):
        b[u, l] = 1.0
        b[v, l] = -1.0
    return b


def _sign_normalize_columns(v: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    mag = np.abs(v)
    big = mag > _SIGN_TOL * np.maximum(mag.max(axis=0), 1.0)
    lead = v[big.argmax(axis=0), np.arange(v.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -v, v)


class SpectralData(NamedTuple):
    """Eigendecomposition-derived quantities of a connected graph's Laplacian.

    Columns 1.. of eigenvectors, those of the nonzero eigenvalues, are an
    orthonormal basis of the disagreement subspace, orthogonal to the
    all-ones vector; the Laplacian is incidence @ incidence.T.
    """

    graph: OrientedGraph
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pseudo_inverse: np.ndarray
    incidence: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def spectral_data(g: OrientedGraph) -> SpectralData:
    """Factor the Laplacian and assemble all derived spectral quantities.

    Eigenvalues below _ZERO_EIG_TOL * lambda_max count as zero; a connected
    graph must produce exactly one. The connectedness requirement is
    structural, the threshold only guards numerics.
    """
    b = incidence_matrix(g)
    lap = b @ b.T  # L: degrees on the diagonal, -1 per edge; integer, so exactly symmetric
    w, v = np.linalg.eigh(lap)
    lam_max = w[-1]
    if lam_max <= 0:
        raise NotConnectedError("graph has no edges or all-zero spectrum")
    n_zero = int(np.sum(w < _ZERO_EIG_TOL * lam_max))
    if n_zero != 1:
        raise NotConnectedError(
            f"{n_zero} zero eigenvalues (expected 1): graph is not connected"
        )
    v = _sign_normalize_columns(v)
    w = w.copy()
    w[0] = 0.0
    inv_w = np.concatenate([[0.0], 1.0 / w[1:]])
    pinv = (v * inv_w) @ v.T
    return SpectralData(
        graph=g,
        eigenvalues=w,
        eigenvectors=v,
        pseudo_inverse=pinv,
        incidence=b,
    )


def resistance_matrix(sd: SpectralData) -> np.ndarray:
    """Full n x n matrix of pairwise effective resistances, unit resistor per edge."""
    d = np.diag(sd.pseudo_inverse)
    return d[:, None] + d[None, :] - 2.0 * sd.pseudo_inverse

