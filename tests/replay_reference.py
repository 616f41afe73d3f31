"""Reference token replay on dict markings, independent of the kernels.

Deliberately written in a different style (dict states, explicit BFS over
marking dicts) but following the same documented conventions:

* produced starts at the initial-marking token count;
* firing consumes the full input weight, flooring at zero, counting the
  shortfall as missing; production follows;
* a label picks among its transitions the one with fewest missing tokens
  after trying to enable it through silent firings (BFS, children in
  transition order, depth <= 10, at most 4096 explored markings, first
  covering marking wins); ties go to the earliest transition;
* unknown labels count one missing and one consumed without moving tokens;
* complete replay first tries to cover the final marking with silent
  firings, then consumes it (shortfall -> missing), and everything left
  over is remaining. Partial replay skips that; strict partial counts
  tokens beyond the final marking as remaining instead.
"""

MAX_DEPTH = 10
NODE_CAP = 4096


class RefReplay:
    def __init__(self, net):
        self.net = net
        self.marking = dict(net.initial_marking)
        self.produced = sum(net.initial_marking.values())
        self.consumed = 0
        self.missing = 0
        self.inputs = {}
        self.outputs = {}
        for t in net.transitions:
            self.inputs[t.tid] = {}
            self.outputs[t.tid] = {}
        for arc in net.arcs:
            if arc.source in self.inputs:  # transition -> place
                self.outputs[arc.source][arc.target] = (
                    self.outputs[arc.source].get(arc.target, 0) + arc.weight
                )
            else:  # place -> transition
                self.inputs[arc.target][arc.source] = (
                    self.inputs[arc.target].get(arc.source, 0) + arc.weight
                )
        self.silent = [t.tid for t in net.transitions if t.label is None]
        self.by_label = {}
        for t in net.transitions:
            if t.label is not None:
                self.by_label.setdefault(t.label, []).append(t.tid)

    # -- helpers ----------------------------------------------------------

    def _covered(self, marking, need) -> bool:
        return all(marking.get(p, 0) >= w for p, w in need.items())

    def _shortfall(self, marking, need) -> int:
        return sum(max(w - marking.get(p, 0), 0) for p, w in need.items())

    def _fire_silent(self, marking, tid) -> dict:
        out = dict(marking)
        for p, w in self.inputs[tid].items():
            out[p] = out[p] - w
            if out[p] == 0:
                del out[p]
        for p, w in self.outputs[tid].items():
            out[p] = out.get(p, 0) + w
        return out

    def _silent_path(self, need):
        """BFS over silent firings until `need` is covered; None if hopeless."""
        start = dict(self.marking)
        if self._covered(start, need):
            return []
        frontier = [(start, [])]
        seen = {frozenset(start.items())}  # a dict marking equals another iff their items do
        depth = 0
        while frontier and depth < MAX_DEPTH:
            nxt = []
            for marking, path in frontier:
                for tid in self.silent:
                    if not self._covered(marking, self.inputs[tid]):
                        continue
                    if len(seen) >= NODE_CAP:
                        return None
                    child = self._fire_silent(marking, tid)
                    frozen = frozenset(child.items())
                    if frozen in seen:
                        continue
                    seen.add(frozen)
                    child_path = path + [tid]
                    if self._covered(child, need):
                        return child_path
                    nxt.append((child, child_path))
            frontier = nxt
            depth += 1
        return None

    def _fire_forced(self, tid):
        for p, w in self.inputs[tid].items():
            have = self.marking.get(p, 0)
            take = min(have, w)
            self.missing += w - take
            self.consumed += w
            if take:
                self.marking[p] = have - take
                if self.marking[p] == 0:
                    del self.marking[p]
        for p, w in self.outputs[tid].items():
            self.marking[p] = self.marking.get(p, 0) + w
            self.produced += w

    def _fire_path(self, path):
        for tid in path:
            for p, w in self.inputs[tid].items():
                self.marking[p] -= w
                if self.marking[p] == 0:
                    del self.marking[p]
                self.consumed += w
            for p, w in self.outputs[tid].items():
                self.marking[p] = self.marking.get(p, 0) + w
                self.produced += w

    # -- public ------------------------------------------------------------

    def step(self, label):
        tids = self.by_label.get(label)
        if not tids:
            self.missing += 1
            self.consumed += 1
            return
        best = None  # (missing, order, tid, path)
        for order, tid in enumerate(tids):
            path = self._silent_path(self.inputs[tid])
            if path is not None:
                miss = 0
            else:
                path = []
                miss = self._shortfall(self.marking, self.inputs[tid])
            if best is None or (miss, order) < (best[0], best[1]):
                best = (miss, order, tid, path)
        _, _, tid, path = best
        self._fire_path(path)
        self._fire_forced(tid)

    def finish_partial(self, strict=False):
        remaining = 0
        if strict:
            final = self.net.final_marking
            remaining = sum(
                max(n - final.get(p, 0), 0) for p, n in self.marking.items()
            )
        return (self.produced, self.consumed, self.missing, remaining)

    def finish_complete(self):
        final = dict(self.net.final_marking)
        path = self._silent_path(final)
        if path is not None:
            self._fire_path(path)
        fin_missing = 0
        for p, w in final.items():
            have = self.marking.get(p, 0)
            take = min(have, w)
            fin_missing += w - take
            self.consumed += w
            if take:
                self.marking[p] = have - take
                if self.marking[p] == 0:
                    del self.marking[p]
        self.missing += fin_missing
        remaining = sum(self.marking.values())
        reached = fin_missing == 0 and remaining == 0
        return (self.produced, self.consumed, self.missing, remaining, reached)


def reference_replay(net, variant, partial=False, strict=False):
    """Counters (produced, consumed, missing, remaining[, reached])."""
    ref = RefReplay(net)
    for label in variant:
        ref.step(label)
    if partial:
        return ref.finish_partial(strict=strict)
    return ref.finish_complete()
