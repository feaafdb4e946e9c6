"""Offline post-processing: pruning and ranking (Section III.D).

After a failure, the Debug Buffer holds the last few predicted-invalid
sequences. The program is run a few more times (correct executions --
never the failure) to build a **Correct Set** of sequences; any logged
sequence present in the Correct Set is pruned. Remaining sequences are
ranked by the number of *matched* leading dependences against the
Correct Set (higher match = higher rank: the first mismatch after a long
correct prefix is where the execution went wrong), tie-broken by the
most negative neural-network output.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.trace.raw import dep_sequences, extract_raw_deps

_END = object()  # trie terminator key


class CorrectSet:
    """Prefix trie over correct-execution dependence sequences."""

    def __init__(self, seq_len, filter_stack=True):
        self.seq_len = seq_len
        self.filter_stack = filter_stack
        self._trie = {}
        self.n_sequences = 0

    def add_run(self, run):
        """Add every sequence of a correct :class:`TraceRun`."""
        streams = extract_raw_deps(run, filter_stack=self.filter_stack)
        for stream in streams.values():
            self.add_sequences(dep_sequences(stream, self.seq_len))

    def add_sequences(self, seqs):
        for seq in seqs:
            node = self._trie
            for dep in seq:
                node = node.setdefault(dep, {})
            if _END not in node:
                node[_END] = True
                self.n_sequences += 1

    def contains(self, seq):
        node = self._trie
        for dep in seq:
            node = node.get(dep)
            if node is None:
                return False
        return _END in node

    def matched_prefix(self, seq):
        """Length of the longest prefix of ``seq`` on a correct path."""
        node = self._trie
        depth = 0
        for dep in seq:
            node = node.get(dep)
            if node is None:
                break
            depth += 1
        return depth

    def __len__(self):
        return self.n_sequences


@dataclass(frozen=True)
class RankedFinding:
    """One ranked root-cause candidate."""

    seq: Tuple
    matched: int
    output: float
    tid: int
    index: int

    @property
    def mismatch_dep(self):
        """The first dependence that diverges from every correct sequence."""
        if self.matched < len(self.seq):
            return self.seq[self.matched]
        return None


@dataclass
class PostprocessResult:
    """Pruned + ranked Debug Buffer contents."""

    findings: list           # RankedFinding, best rank first
    n_input: int
    n_pruned: int

    @property
    def filter_pct(self):
        """Table V/VI "Filter (%)": share of entries pruned away."""
        if self.n_input == 0:
            return 0.0
        return 100.0 * self.n_pruned / self.n_input

    def rank_of(self, predicate):
        """1-based rank of the first finding satisfying ``predicate``."""
        for rank, finding in enumerate(self.findings, start=1):
            if predicate(finding):
                return rank
        return None

    def rank_of_dep(self, dep_keys):
        """Rank of the first finding that exposes a root-cause dep.

        A finding exposes the root cause when one of ``dep_keys`` (a set
        of ``(store_pc, load_pc)`` pairs) appears in its *mismatched
        suffix* -- the part of the sequence after the last
        correct-execution prefix match, which is what the programmer
        inspects (Section III.D).
        """
        def hit(finding):
            return any((d.store_pc, d.load_pc) in dep_keys
                       for d in finding.seq[finding.matched:])
        return self.rank_of(hit)


def postprocess(debug_entries, correct_set, dedupe=True):
    """Prune and rank debug-buffer entries against a Correct Set.

    Args:
        debug_entries: iterable of :class:`~repro.core.buffers.DebugEntry`.
        correct_set: a populated :class:`CorrectSet`.
        dedupe: collapse repeated identical sequences, keeping the most
            negative output (a buffer full of copies of one loop-carried
            sequence should count once for the programmer).
    """
    entries = list(debug_entries)
    survivors = []
    n_pruned = 0
    for entry in entries:
        if correct_set.contains(entry.seq):
            n_pruned += 1
        else:
            survivors.append(entry)

    if dedupe:
        best = {}
        for e in survivors:
            old = best.get(e.seq)
            if old is None or e.output < old.output:
                best[e.seq] = e
        survivors = list(best.values())

    findings = [
        RankedFinding(seq=e.seq, matched=correct_set.matched_prefix(e.seq),
                      output=e.output, tid=e.tid, index=e.index)
        for e in survivors
    ]
    # Highest matched first; ties -> most negative (smallest) NN output;
    # final tie -> most recent first for determinism.
    findings.sort(key=lambda f: (-f.matched, f.output, -f.index))
    return PostprocessResult(findings=findings, n_input=len(entries),
                             n_pruned=n_pruned)
