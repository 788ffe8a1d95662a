"""Worst-case stream constructions used in the paper's arguments.

* :func:`mg_worst_case_stream` realizes the Fact 7 lower bound: ``k + 1``
  distinct elements with equal frequency force any ``k``-counter summary to
  drop one of them, so an error of ``n / (k + 1)`` is unavoidable.
* :func:`lemma25_streams` constructs the neighbouring pair of user-level
  streams from Lemma 25 where a *single* Misra-Gries counter differs by ``m``,
  showing that the MG sketch cannot avoid noise scaling with ``m``.
* :func:`alternating_stream` keeps the decrement branch firing as often as
  possible, maximizing the error accumulated by counter-based sketches.
"""

from __future__ import annotations

from typing import List, Tuple

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import ParameterError


def mg_worst_case_stream(k: int, repetitions: int) -> List[int]:
    """``k + 1`` distinct elements, each appearing ``repetitions`` times, interleaved.

    On this stream a Misra-Gries sketch of size ``k`` reports 0 for at least
    one element whose true frequency is ``repetitions = n / (k + 1)``, matching
    the Fact 7 bound exactly.
    """
    size = check_positive_int(k, "k")
    reps = check_non_negative_int(repetitions, "repetitions")
    stream: List[int] = []
    for _ in range(reps):
        stream.extend(range(size + 1))
    return stream


def tight_error_stream(k: int, n: int) -> List[int]:
    """A stream of length approximately ``n`` achieving error close to ``n/(k+1)``.

    Rounds ``n`` down to a multiple of ``k + 1`` and interleaves ``k + 1``
    distinct elements.
    """
    size = check_positive_int(k, "k")
    length = check_non_negative_int(n, "n")
    repetitions = length // (size + 1)
    return mg_worst_case_stream(size, repetitions)


def alternating_stream(k: int, rounds: int, heavy_element: int = 0) -> List[int]:
    """A stream alternating one heavy element with bursts of fresh elements.

    Each round contributes one occurrence of ``heavy_element`` followed by
    ``k`` distinct never-repeated elements, so the decrement branch fires once
    per round and the heavy element's counter stays pinned near zero even
    though its true frequency is ``rounds``.
    """
    size = check_positive_int(k, "k")
    count = check_non_negative_int(rounds, "rounds")
    stream: List[int] = []
    fresh = heavy_element + 1
    for _ in range(count):
        stream.append(heavy_element)
        stream.extend(range(fresh, fresh + size))
        fresh += size
    return stream


def lemma25_streams(k: int, m: int, tail_length: int = 0,
                    target_element: str = "x") -> Tuple[List[frozenset], List[frozenset]]:
    """The neighbouring user-level streams of Lemma 25.

    Returns a pair ``(stream, neighbour)`` of user-level streams (lists of
    frozensets) such that the Misra-Gries sketch computed on the flattened
    streams has ``counter(target_element)`` differing by exactly ``m`` between
    the two.  ``neighbour`` is ``stream`` with user ``k+1`` removed.

    Construction (following the proof): the first ``k`` users contribute
    ``m`` copies of ``k`` distinct padding elements arranged by cycling, the
    ``(k+1)``-th user contributes ``m`` fresh padding elements (forcing a full
    decrement on ``stream`` only), and the remaining ``m + tail_length`` users
    contribute the singleton ``{target_element}``.
    """
    size = check_positive_int(k, "k")
    contribution = check_positive_int(m, "m")
    tail = check_non_negative_int(tail_length, "tail_length")
    if contribution > size:
        raise ParameterError("Lemma 25 construction requires m <= k")
    padding = [f"pad-{i}" for i in range(size)]
    users: List[frozenset] = []
    # k users cycling through the padding elements, m at a time: element j is
    # contained in exactly m of these user sets.
    position = 0
    for _ in range(size):
        chosen = [padding[(position + offset) % size] for offset in range(contribution)]
        users.append(frozenset(chosen))
        position = (position + contribution) % size
    # The user that is removed in the neighbouring stream: m fresh elements.
    extra_user = frozenset(f"extra-{i}" for i in range(contribution))
    users_with_extra = users + [extra_user]
    # Tail of singleton {target_element} users.
    tail_users = [frozenset({target_element})] * (contribution + tail)
    stream = users_with_extra + tail_users
    neighbour = users + tail_users
    return stream, neighbour
