"""The original generator walk over payloads, kept as a test oracle.

``repro.core.values.collect_values`` walks a payload eagerly into a
list, with exact-class dispatch and per-type field-name caches.  This
module keeps the generator it replaced exactly as it was, so
``tests/test_drive.py`` can check on generated payload trees that both
see the same values in the same order, and that ``Sealed.wrap`` seeds
an exterior's provenance from the walk's first value.
"""

import dataclasses
from typing import Any, Iterator

from repro.core.values import Aggregate, LabeledValue, Sealed


def walk_values(
    item: Any, keyring: frozenset[str] | set[str]
) -> Iterator[LabeledValue]:
    """Yield every labeled value visible to a holder of ``keyring``.

    Walks arbitrarily nested tuples/lists/dicts, opening
    :class:`Sealed` envelopes whose ``key_id`` is in ``keyring`` and
    yielding only the exterior of those that are not.  This function is
    the single place where "who can see what" is decided; entities call
    it from :meth:`~repro.core.entities.Entity.observe`.
    """
    if isinstance(item, LabeledValue):
        yield item
    elif isinstance(item, Sealed):
        if item.key_id in keyring:
            # A key holder sees the ciphertext too: the exterior is
            # yielded alongside the contents.  This is what lets the
            # linkage analysis connect an envelope observed in transit
            # by one entity with its decryption at another.
            if item.exterior is not None:
                yield item.exterior
            for inner in item.contents:
                yield from walk_values(inner, keyring)
        elif item.exterior is not None:
            yield item.exterior
    elif isinstance(item, Aggregate):
        yield from item.exterior_values()
    elif isinstance(item, dict):
        for child in item.values():
            yield from walk_values(child, keyring)
    elif isinstance(item, (tuple, list, set, frozenset)):
        for child in item:
            yield from walk_values(child, keyring)
    elif dataclasses.is_dataclass(item) and not isinstance(item, type):
        # Protocol messages are dataclasses; walk their fields so the
        # labels they embed (a query's qname, a request's target) are
        # observed without each message type teaching the walker.
        for f in dataclasses.fields(item):
            yield from walk_values(getattr(item, f.name), keyring)
    # Bare payloads (str/int/bytes/None) carry no labeled information.
