"""Memory-model identity: SHA-256 pins of every cache access.

Each digest covers, for the 12 Table III kernels at ``LARGE_PARAMS``
(trace seed 7):

- the ``annotate_run`` result stream: ``level``, ``latency``,
  ``state_before``, ``writer`` and ``line_addr`` of every memory event;
- the final ``mem_stats`` of a base ``simulate_run`` and its cycles.

The default geometry evicts nothing in any kernel, so the eight
combinations of the last-writer ablation flags are also replayed on a
small geometry that does evict (``EVICTING``: 8 of the 12 kernels evict,
mcf most). Those digests also cover the ``cache_dep_streams`` output,
which is where eviction dropping, writeback and piggyback filtering
change the dependences. A change to how the memory model is computed
must leave every digest unchanged. To regenerate after an intended
behaviour change, run this file as a script and paste its output below.
"""

import hashlib
import itertools

import pytest

from repro.analysis.scale import LARGE_PARAMS
from repro.sim.machine import annotate_run, cache_dep_streams, simulate_run
from repro.sim.params import MachineParams
from repro.workloads.framework import run_program
from repro.workloads.registry import get_kernel

TRACE_SEED = 7
KERNELS = ("barnes", "bc", "bzip2", "canneal", "fft", "fluidanimate",
           "lu", "mcf", "ocean", "radix", "streamcluster", "swaptions")
EVICTING = dict(l1_size=128, l1_assoc=1, l2_size=256, l2_assoc=2)
FLAGS = ("lw_word_granularity", "lw_writeback_on_evict",
         "lw_piggyback_dirty_only")
COMBOS = {"".join("1" if bit else "0" for bit in bits): bits
          for bits in itertools.product((False, True), repeat=3)}

_RUNS = {}


def _run(kernel):
    if kernel not in _RUNS:
        _RUNS[kernel] = run_program(get_kernel(kernel), seed=TRACE_SEED,
                                    **LARGE_PARAMS[kernel])
    return _RUNS[kernel]


def _memory_lines(run, params, dep_streams):
    lines = []
    for res in annotate_run(run, params):
        if res is not None:
            lines.append(f"{res.level}|{res.latency}|{res.state_before}|"
                         f"{res.writer}|{res.line_addr}")
    base = simulate_run(run, params=params)
    lines.append(f"cycles={base.cycles}")
    lines.append(",".join(f"{k}={v}" for k, v in base.mem_stats.items()))
    if dep_streams:
        for tid, stream in sorted(cache_dep_streams(run, params).items()):
            for rec in stream:
                d = rec.dep
                lines.append(f"{tid}|{rec.index}|{rec.addr}|{d.store_pc}:"
                             f"{d.load_pc}:{int(d.inter_thread)}")
    return lines


def kernel_digest(kernel):
    """Default geometry, one kernel."""
    lines = _memory_lines(_run(kernel), MachineParams(), dep_streams=False)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def combo_digest(combo):
    """Evicting geometry with one flag combination, all kernels."""
    params = MachineParams(**EVICTING, **dict(zip(FLAGS, COMBOS[combo])))
    lines = []
    for kernel in KERNELS:
        lines.append(f"kernel {kernel}")
        lines.extend(_memory_lines(_run(kernel), params, dep_streams=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _all_digests():
    out = {name: kernel_digest(name) for name in KERNELS}
    for combo in COMBOS:
        out["evict-" + combo] = combo_digest(combo)
    return out


# Generated before the per-access fast paths; keys "evict-WBP" set the
# flags in FLAGS order (word granularity, writeback, piggyback dirty only).
# "evict-110" and "evict-111" were regenerated when a memory fill began
# restoring every written-back word of the line, not only the one loaded.
MEMORY_DIGESTS = {
    'barnes':
        '7be829c48c81a516cdf41726cf93bcafdec05f8b87a83c5fc37793e5173ca2b1',
    'bc':
        '7dbc8b1b91a7a1caf8df66ad84059c19171c600d8d8567441aeefc7c576cf7f2',
    'bzip2':
        'e9dd1d9d9afc24f292085433cdf770a744ab2f692b1c285cad91075da3b6db62',
    'canneal':
        '0a9157fd8a6a7a24bb74688be899ef5d0048ce9c2f7779bccbc0e9479b2a2cc1',
    'fft':
        '008e0bb12503c6c1ed9f002e2619bf5de2fb0eed1a0ad26e36cc3d0948d01bea',
    'fluidanimate':
        'f517290dbfdc523cf425cbe856905492c24989ccb3f82d82ca5ac8148905460e',
    'lu':
        'ee41ae68068f2b7f1ec1f9caae5a82aaf8c65b40f723b158a721403e9ca663fa',
    'mcf':
        '7381e3f8142ecb47ea4dc5bc044b4cc34d70381a8b3ad6653122baadd4da5ae1',
    'ocean':
        'cdec0b78de421d033c564da71b0207b325dc60391b365c381c81ff70071e9068',
    'radix':
        'fd19fc34b67435479b28bcc41b5fe12c3efb827edb773bbd923e32cb10a7e422',
    'streamcluster':
        'fa281337b1ba49b1582f2ccff555c7c953a263dd3771306b587aec6f3e003e21',
    'swaptions':
        '3b734fccd6cddb7a2fa351e5dd02a08e0151d5e01a07a6356337bade3cb24e65',
    'evict-000':
        '000e1d4f71930ecf9f8c7ef3a5f9dbddd1d35ec19900d97de6bb86b4ab4b6a59',
    'evict-001':
        '0fdebac8f4157edde9f77378a3dd2f33d2c769019d4068a4df452f4f53875f3d',
    'evict-010':
        '3ba8b72b6c0a952e11e825033a47e50c6c3f3a5b9a3a2ff5abcb78a417e0687c',
    'evict-011':
        'c00ff718939929f71f4750e0c6ca76ed48da9e3a640981c7b6f5ef5a40726218',
    'evict-100':
        '06ae72b073dfca41419e0221784df3e1fdd5fb2671494bb4a1613448996ff751',
    'evict-101':
        'e05a53e0bf34807e1dcece6a040654ad15c24b0f5c14d99344bb335c7de8e0fe',
    'evict-110':
        'c1c6ceade280d62b70cf563fa59e674d584853c68e03ddf6971d78d2456bb16f',
    'evict-111':
        '5b96a61c035c1393dea59045496b33ce0aa6ae093c5c9ac0fb896140d8ba941f',
}


class TestMemoryModelIdentity:
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_digest(self, name):
        assert kernel_digest(name) == MEMORY_DIGESTS[name]

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_evicting_combo_digest(self, combo):
        assert combo_digest(combo) == MEMORY_DIGESTS["evict-" + combo]

    def test_evicting_geometry_evicts(self):
        params = MachineParams(**EVICTING)
        evicting = [k for k in KERNELS
                    if simulate_run(_run(k), params=params)
                    .mem_stats["evictions"]]
        assert len(evicting) >= 8


if __name__ == "__main__":
    for _label, _digest in _all_digests().items():
        print(f"    {_label!r}:\n        {_digest!r},")
