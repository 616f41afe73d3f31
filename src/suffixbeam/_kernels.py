"""Hot numeric kernels: token-replay stepping and edit-distance DP.

Everything here operates on plain int32 arrays. The replay kernels run only
when a net's replay memo misses (see :class:`suffixbeam.petri.CompiledNet`).

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

import numpy as np

SILENT_BFS_DEPTH = 10

# There is no compiled backend; the benchmark records this flag with its
# environment, so it stays as a constant.
USING_NUMBA = False


def covered(marking, req):
    """True when the marking has at least req tokens in every place."""
    return bool((marking >= req).all())


def missing_tokens(marking, req):
    total = 0
    for i in range(req.shape[0]):
        gap = req[i] - marking[i]
        if gap > 0:
            total += gap
    return total


def fire_forced(marking, in_row, out_row):
    """Fire a transition, inserting missing input tokens as needed.

    Mutates the marking. Returns (missing, consumed, produced) token counts
    for this single firing.
    """
    miss = 0
    cons = 0
    prod = 0
    for i in range(marking.shape[0]):
        take = in_row[i]
        if take > 0:
            cons += take
            short = take - marking[i]
            if short > 0:
                miss += short
                marking[i] = 0
            else:
                marking[i] -= take
    for i in range(marking.shape[0]):
        add = out_row[i]
        if add > 0:
            marking[i] += add
            prod += add
    return miss, cons, prod


def silent_path_to(marking, req, in_w, out_w, silent_ids, max_depth, node_cap):
    """Shortest sequence of enabled silent firings after which req is covered.

    BFS over reachable markings; children are generated in silent-id order,
    so the first goal hit is the shortest, earliest sequence. The search
    gives up once it holds node_cap distinct markings and an enabled silent
    firing would add another (the cap is checked before the duplicate test).
    Returns (found, path, path_length); the input marking is not modified.
    """
    empty = np.empty(0, dtype=np.int32)
    if covered(marking, req):
        return True, empty, 0
    if silent_ids.shape[0] == 0:
        return False, empty, 0
    silent_in = in_w[silent_ids]
    silent_delta = out_w[silent_ids] - silent_in
    nodes, parent, via, depth = [marking], [-1], [-1], [0]
    seen = {marking.tobytes()}
    head = 0
    while head < len(nodes):
        node = nodes[head]
        if depth[head] < max_depth:
            for j in np.flatnonzero((node >= silent_in).all(axis=1)):
                if len(nodes) >= node_cap:
                    return False, empty, 0  # search space truncated; give up
                child = node + silent_delta[j]
                key = child.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                nodes.append(child)
                parent.append(head)
                via.append(int(silent_ids[j]))
                depth.append(depth[head] + 1)
                if covered(child, req):
                    path = []
                    idx = len(nodes) - 1
                    while idx > 0:
                        path.append(via[idx])
                        idx = parent[idx]
                    return True, np.array(path[::-1], dtype=np.int32), len(path)
        head += 1
    return False, empty, 0


def replay_one_label(marking, tids, in_w, out_w, silent_ids, max_depth, node_cap):
    """Replay one visible label: pick a transition, enable it, fire it.

    Among the candidate transitions (all sharing the label, ids ascending)
    the one needing the fewest missing tokens wins — a transition that a
    silent sequence can fully enable counts as zero missing; ties go to the
    lowest transition id. Mutates the marking; returns the (missing,
    consumed, produced) deltas including any silent firings.
    """
    best_tid = -1
    best_miss = np.int64(1) << 40
    best_path = np.empty(0, dtype=np.int32)
    best_plen = 0
    for j in range(tids.shape[0]):
        t = tids[j]
        direct = missing_tokens(marking, in_w[t])
        if direct == 0:
            best_tid = t
            best_miss = 0
            best_path = np.empty(0, dtype=np.int32)
            best_plen = 0
            break
        found, path, plen = silent_path_to(
            marking, in_w[t], in_w, out_w, silent_ids, max_depth, node_cap
        )
        if found:
            best_tid = t
            best_miss = 0
            best_path = path
            best_plen = plen
            break
        if direct < best_miss:
            best_tid = t
            best_miss = direct
            best_path = np.empty(0, dtype=np.int32)
            best_plen = 0
    m_add = 0
    c_add = 0
    p_add = 0
    for s in range(best_plen):
        miss, cons, prod = fire_forced(marking, in_w[best_path[s]], out_w[best_path[s]])
        m_add += miss  # always 0: silents on the path are enabled by construction
        c_add += cons
        p_add += prod
    miss, cons, prod = fire_forced(marking, in_w[best_tid], out_w[best_tid])
    return m_add + miss, c_add + cons, p_add + prod


def finish_complete(marking, final, in_w, out_w, silent_ids, max_depth, node_cap):
    """Consume the final marking, trying silent moves to cover it first.

    Mutates the marking. Returns (missing, consumed, produced, remaining,
    reached): counter deltas for the finishing moves, the count of tokens
    left anywhere after the final consumption, and whether the final
    marking was met exactly.
    """
    c_add = 0
    p_add = 0
    found, path, plen = silent_path_to(
        marking, final, in_w, out_w, silent_ids, max_depth, node_cap
    )
    if found:
        for s in range(plen):
            _, cons, prod = fire_forced(marking, in_w[path[s]], out_w[path[s]])
            c_add += cons
            p_add += prod
    miss = 0
    for i in range(marking.shape[0]):
        need = final[i]
        if need > 0:
            c_add += need
            short = need - marking[i]
            if short > 0:
                miss += short
                marking[i] = 0
            else:
                marking[i] -= need
    remaining = 0
    for i in range(marking.shape[0]):
        remaining += marking[i]
    reached = miss == 0 and remaining == 0
    return miss, c_add, p_add, remaining, reached


def residual_over_final(marking, final):
    """Tokens in the marking not explainable as (part of) the final marking."""
    total = 0
    for i in range(marking.shape[0]):
        extra = marking[i] - final[i]
        if extra > 0:
            total += extra
    return total


def osa_distance(a, b):
    """Optimal-string-alignment Damerau-Levenshtein distance on code arrays.

    Insertions, deletions, substitutions, and adjacent transpositions; no
    substring is edited twice (the standard OSA restriction).
    """
    la = a.shape[0]
    lb = b.shape[0]
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2 = np.zeros(lb + 1, dtype=np.int32)
    prev = np.empty(lb + 1, dtype=np.int32)
    cur = np.empty(lb + 1, dtype=np.int32)
    for j in range(lb + 1):
        prev[j] = j
    for i in range(1, la + 1):
        cur[0] = i
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d = prev[j] + 1
            if cur[j - 1] + 1 < d:
                d = cur[j - 1] + 1
            if prev[j - 1] + cost < d:
                d = prev[j - 1] + cost
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                if prev2[j - 2] + 1 < d:
                    d = prev2[j - 2] + 1
            cur[j] = d
        tmp = prev2
        prev2 = prev
        prev = cur
        cur = tmp
    return int(prev[lb])
