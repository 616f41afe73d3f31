"""Token-replay kernels: silent BFS, one-label replay, final-marking finish.

The kernels work on packed markings: one Python int holding 32 bits per
place, place p in bits 32p to 32p+31, which is the marking's little-endian
int32 bytes read with ``int.from_bytes`` (:func:`unpack` turns it back).
Counts never exceed ``petri.TOKEN_MAX`` < 2**31, so with ``H`` the top bit
of every field, ``(m | H) - b`` holds ``2**31 + m_p - b_p`` in every field
at once (no field borrows from its neighbour): ``((m | H) - pre) & H == H``
says that m covers ``pre``, and :func:`excess` sums the positive
differences. An enabled firing is ``m - pre + post``, and a count past
``TOKEN_MAX`` shows as ``m & H``; a firing or a silent search that would
take a count there raises ValueError instead of wrapping. The kernels are
the miss path of a net's reachability graph (see
:class:`suffixbeam.petri.CompiledNet`), which keys its states by their
packed ints: they run once per state and label, or per state for the
residual and the finish.

Replay conventions baked into these kernels (the rest of the package and
the test oracles mirror them):

* firing consumes the full input arc weight even when tokens are missing;
  the shortfall is counted as "missing" and the marking is floored at zero;
* silent transitions fire only when actually enabled — they are used to
  enable a target transition (or to cover the final marking) via a
  breadth-first search over silent firings, children generated in
  transition-id order, bounded depth; one search serves every candidate
  of a label, and the lowest candidate it can enable wins;
* every firing, silent or not, adds its arc weights to the produced and
  consumed counters.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

SILENT_BFS_DEPTH = 10
# Distinct markings one silent search may hold before it gives up.
NODE_CAP = 4096
FIELD = 0xFFFFFFFF  # one place's 32 bits
# A number is the sum of its 64-bit digits modulo this, as 2**64 is 1 modulo it.
DIGIT_MOD = 2**64 - 1

# There is no compiled backend; the benchmark records this flag with its
# environment, so it stays as a constant.
USING_NUMBA = False


def unpack(code: int, n_places: int):
    """The read-only int32 array of a packed marking."""
    return np.frombuffer(code.to_bytes(4 * n_places, "little"), dtype="<i4").astype(np.int32, copy=False)


def excess(net, a: int, b: int) -> int:
    """Sum over places of max(a_p - b_p, 0), for packed markings a and b.

    Fields where ``(a | H) - b`` keeps its top bit hold ``a_p - b_p`` in
    their low 31 bits; the others are masked to 0. Adding the odd fields onto
    the even ones (``net.evens``) gives 64-bit digits below 2**32, whose sum
    stays below :data:`DIGIT_MOD`, so one modulo takes it.
    """
    high = net.high
    diff = (a | high) - b
    kept = diff & high
    diff &= kept - (kept >> 31)  # a field of 31 ones where a_p >= b_p, else 0
    evens = net.evens
    return ((diff & evens) + (diff >> 32 & evens)) % DIGIT_MOD


def _overflow(net, code):
    """The error for a packed marking with a count past the int32 range."""
    over = code & net.high
    place = list(net.place_index)[((over & -over).bit_length() - 1) // 32]
    return ValueError(f"replay overflows the int32 token count of place {place!r}")


def silent_path_to(net, marking, reqs):
    """The lowest of the packed markings reqs that silent firings can cover, and how.

    One BFS over reachable packed markings, children generated in
    silent-row order. Each marking, the start included, is tested as it is
    generated against the reqs below the lowest one covered so far, so
    req i's first hit is the shortest, earliest sequence that a search for
    it alone finds: that search visits a prefix of this one's node order.
    The search ends once reqs[0] is covered, or gives up once it holds
    NODE_CAP distinct markings and an enabled silent firing would add
    another (the cap is checked before the duplicate test), and logs that
    at WARNING, since the replay then charges missing tokens a path might
    have avoided. A child with a count past the int32 range raises
    ValueError. Returns (i, transition rows of the path) for the lowest i
    covered, or None.
    """
    high, silent_rows, pre, post = net.high, net.silent_rows, net.pre, net.post
    lifted, found, below = marking | high, None, reqs  # below: the reqs a marking must cover to beat found
    for i, req in enumerate(reqs):
        if (lifted - req) & high == high:
            found, below = (i, []), reqs[:i]
            break
    level, seen = [(marking, [])], {marking}  # the markings first reached at one depth, and all seen
    for _ in range(SILENT_BFS_DEPTH if below and silent_rows else 0):
        next_level = []
        for node, path in level:
            lifted = node | high
            for t in silent_rows:
                if (lifted - pre[t]) & high != high:
                    continue
                if len(seen) >= NODE_CAP:
                    logger.warning("silent search gave up after %d markings; the replay step"
                                   " charges the tokens it could not enable as missing", NODE_CAP)
                    return found
                child = node - pre[t] + post[t]
                if child & high:
                    raise _overflow(net, child)
                if child in seen:
                    continue
                seen.add(child)
                child_path = path + [t]
                covering = child | high
                for req in below:
                    if (covering - req) & high == high:
                        i = below.index(req)  # its place: an equal req before it is covered too
                        if not i:
                            return i, child_path
                        found, below = (i, child_path), below[:i]
                        break
                next_level.append((child, child_path))
        level = next_level
    return found


def _consume(net, marking, t):
    """Take row t's input tokens from the packed marking, flooring each place
    at zero: (marking, tokens missing)."""
    high = net.high
    if ((marking | high) - net.pre[t]) & high == high:
        return marking - net.pre[t], 0
    missing = 0
    for shift, weight in net.inputs[t]:
        have = marking >> shift & FIELD
        if have < weight:
            missing += weight - have
            weight = have
        marking -= weight << shift
    return marking, missing


def _fire(net, marking, rows):
    """Fire the transition rows in order: (marking, missing, consumed, produced)."""
    missing = consumed = produced = 0
    for t in rows:
        marking, short = _consume(net, marking, t)
        marking += net.post[t]
        missing += short
        consumed += net.pre_tokens[t]
        produced += net.post_tokens[t]
        if marking & net.high:  # a count past TOKEN_MAX: two counts added past 2**31 - 1
            raise _overflow(net, marking)
    return marking, missing, consumed, produced


def replay_one_label(net, marking, tids):
    """Replay one visible label: pick a transition, enable it, fire it.

    Among the candidate transitions (all sharing the label, ids ascending)
    the first that a silent sequence can fully enable wins, found by one
    search over their inputs; failing that, the one needing the fewest
    missing tokens, ties going to the lowest id. Returns (next packed
    marking, missing, consumed, produced), the counters including any
    silent firings.
    """
    found = silent_path_to(net, marking, [net.pre[t] for t in tids])
    i, path = found or (min(range(len(tids)), key=lambda i: _consume(net, marking, tids[i])[1]), [])
    return _fire(net, marking, path + [tids[i]])


def finish_complete(net, marking):
    """Consume the final marking, trying silent moves to cover it first.

    Returns (missing, consumed, produced, remaining, reached): counter
    deltas for the finishing moves, the count of tokens left anywhere after
    the final consumption, and whether the final marking was met exactly.
    """
    final = net.final_code
    _, path = silent_path_to(net, marking, (final,)) or (0, [])
    marking, _, consumed, produced = _fire(net, marking, path)
    missing, remaining = excess(net, final, marking), excess(net, marking, final)
    return missing, consumed + net.final_tokens, produced, remaining, missing == 0 and remaining == 0
