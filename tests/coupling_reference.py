"""The original recursive coupling kernel, kept as a test oracle.

``repro.core.analysis`` answers "does this pool couple?" with a flat
integer union-find.  This module keeps the kernel it replaced --
a union-find over hashable ``("obs", i)`` / ``("session", s)`` /
``("digest", d)`` tokens with a recursive ``find`` -- exactly as it
was, so ``tests/test_coupling_kernel.py`` can check on generated pools
that both give the same answer.  The full-scan analyzer oracle
(``tests/analyzer_reference.py``) couples its pools with this kernel
too, so the analyzer-level equivalence suites also catch a kernel bug.

The recursion in ``find`` makes this oracle unusable on long linkage
chains (a few thousand links exhaust the default recursion limit);
keep the generated pools small.
"""

from typing import Dict, List, Sequence, Set

from repro.core.ledger import Observation


class _DisjointSet:
    """Union-find over arbitrary hashable tokens."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def find(self, token: object) -> object:
        parent = self._parent.setdefault(token, token)
        if parent == token:
            return token
        root = self.find(parent)
        self._parent[token] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def _observations_couple(observations: Sequence[Observation]) -> bool:
    """Linkage-based coupling over one subject's pooled observations."""
    if not observations:
        return False
    dsu = _DisjointSet()
    share_indices: Dict[str, Set[int]] = {}
    share_totals: Dict[str, int] = {}
    share_obs_tokens: Dict[str, List[int]] = {}
    for index, obs in enumerate(observations):
        token = ("obs", index)
        if obs.session:
            dsu.union(token, ("session", obs.session))
        dsu.union(token, ("digest", obs.value_digest))
        if obs.share_info is not None:
            group = obs.share_info.group
            share_indices.setdefault(group, set()).add(obs.share_info.index)
            share_totals[group] = obs.share_info.total
            share_obs_tokens.setdefault(group, []).append(index)

    # Reconstructable share groups: merge their components and mark the
    # merged component as holding reconstructed sensitive data.
    reconstructed_roots: Set[object] = set()
    for group, indices in share_indices.items():
        if len(indices) >= share_totals[group]:
            tokens = share_obs_tokens[group]
            first = ("obs", tokens[0])
            for other in tokens[1:]:
                dsu.union(first, ("obs", other))
            reconstructed_roots.add(dsu.find(first))

    identity_roots: Set[object] = set()
    data_roots: Set[object] = set()
    for index, obs in enumerate(observations):
        root = dsu.find(("obs", index))
        if obs.label.is_identity and obs.label.is_sensitive:
            identity_roots.add(root)
        if obs.label.is_data and obs.label.is_sensitive:
            data_roots.add(root)
    # Reconstructed share groups count as sensitive data in whatever
    # component they ended up in (re-canonicalized after all unions).
    data_roots |= {dsu.find(root) for root in reconstructed_roots}
    return bool(identity_roots & data_roots)
