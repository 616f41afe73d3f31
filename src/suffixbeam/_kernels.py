"""Token-replay kernels: silent BFS, one-label replay, final-marking finish.

Markings are int32 arrays with no negative count (the net rejects one). A
firing that would take a count past the int32 range raises ValueError
instead of wrapping. The kernels are the miss path of a net's reachability
graph (see :class:`suffixbeam.petri.CompiledNet`): they run once per state
and label, or per state for the finish, and return new arrays, never
writing to the marking they are given.

Replay conventions baked into these kernels (the rest of the package and
the test oracles mirror them):

* firing consumes the full input arc weight even when tokens are missing;
  the shortfall is counted as "missing" and the marking is floored at zero;
* silent transitions fire only when actually enabled — they are used to
  enable a target transition (or to cover the final marking) via a
  breadth-first search over silent firings, children generated in
  transition-id order, bounded depth, first hit wins;
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

# There is no compiled backend; the benchmark records this flag with its
# environment, so it stays as a constant.
USING_NUMBA = False


def silent_path_to(net, marking, req):
    """Shortest sequence of enabled silent firings after which req is covered.

    BFS over reachable markings; children are generated in silent-id order,
    so the first goal hit is the shortest, earliest sequence. The search
    gives up once it holds NODE_CAP distinct markings and an enabled silent
    firing would add another (the cap is checked before the duplicate test),
    and logs that at WARNING, since the replay then charges missing tokens a
    path might have avoided. Returns the transition rows of the path, or None
    when there is none or the search gave up.
    """
    if (marking >= req).all():
        return []
    silent_ids = net.silent_ids
    if not len(silent_ids):
        return None
    silent_in = net.in_w[silent_ids]
    silent_delta = net.out_w[silent_ids] - silent_in
    level = [(marking, [])]  # the markings first reached at one depth, with their paths
    seen = {marking.tobytes()}
    for _ in range(SILENT_BFS_DEPTH):
        next_level = []
        for node, path in level:
            for j in np.flatnonzero((node >= silent_in).all(axis=1)):
                if len(seen) >= NODE_CAP:
                    logger.warning("silent search gave up after %d markings; the replay step"
                                   " charges the tokens it could not enable as missing", NODE_CAP)
                    return None
                child = node + silent_delta[j]
                key = child.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                child_path = path + [int(silent_ids[j])]
                if (child >= req).all():
                    return child_path
                next_level.append((child, child_path))
        level = next_level
    return None


def _fire(net, marking, rows):
    """Fire the transition rows in order: (marking, missing, consumed, produced)."""
    missing = consumed = produced = 0
    for t in rows:
        in_row, out_row = net.in_w[t], net.out_w[t]
        missing += int(np.maximum(in_row - marking, 0).sum())
        consumed += int(in_row.sum())
        produced += int(out_row.sum())
        marking = np.maximum(marking - in_row, 0) + out_row
        if (marking < 0).any():  # int32 wrapped: two non-negative counts added past 2**31 - 1
            pid = next(pid for pid, i in net.place_index.items() if marking[i] < 0)
            raise ValueError(f"replay overflows the int32 token count of place {pid!r}")
    return marking, missing, consumed, produced


def replay_one_label(net, marking, tids):
    """Replay one visible label: pick a transition, enable it, fire it.

    Among the candidate transitions (all sharing the label, ids ascending)
    the one needing the fewest missing tokens wins — a transition that a
    silent sequence can fully enable counts as zero missing; ties go to the
    lowest transition id. Returns (next marking, missing, consumed,
    produced), the counters including any silent firings.
    """
    best, best_miss, path = None, float("inf"), []
    for t in tids:
        in_row = net.in_w[t]
        miss = int(np.maximum(in_row - marking, 0).sum())
        found = [] if miss == 0 else silent_path_to(net, marking, in_row)
        if found is not None:
            best, path = t, found
            break
        if miss < best_miss:
            best, best_miss = t, miss
    return _fire(net, marking, path + [best])


def finish_complete(net, marking):
    """Consume the final marking, trying silent moves to cover it first.

    Returns (missing, consumed, produced, remaining, reached): counter
    deltas for the finishing moves, the count of tokens left anywhere after
    the final consumption, and whether the final marking was met exactly.
    """
    path = silent_path_to(net, marking, net.final) or []
    marking, _, consumed, produced = _fire(net, marking, path)
    missing = int(np.maximum(net.final - marking, 0).sum())
    remaining = int(np.maximum(marking - net.final, 0).sum())
    consumed += int(net.final.sum())
    return missing, consumed, produced, remaining, missing == 0 and remaining == 0
