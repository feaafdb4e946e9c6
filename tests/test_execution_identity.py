"""Execution identity: the scheduler and the RAW extractor are pinned.

Every digest below is SHA-256 over a canonical text form of

- each executed trace: every event's fields and the value a store
  carries, ``failed``, the failure text, ``meta["steps"]`` and the
  scheduler's ``sched.quanta`` counter;
- the extracted dependence streams: word granularity without
  negatives, and word and 64-byte line granularity with negatives.

The programs are every bundled bug (correct runs at the training and
pruning seeds, the buggy run at the failure seed) and every
``ARCHETYPES x MOTIFS`` cell of ``ProgramSpec.from_seed`` at two spec
seeds. A change to the per-event execution path (scheduler loop, event
records, dependence records) must leave every digest unchanged: the
RNG must see the same draws, and every trace, dependence and negative
must come out the same. CI also runs this file under several
``PYTHONHASHSEED`` values, so a scheduler that came to depend on set
iteration order fails here.

To regenerate after an intended behaviour change, run this file as a
script and paste its output over ``DIGESTS``.
"""

import hashlib
import itertools

import pytest

from repro import telemetry
from repro.trace.raw import extract_raw_deps, extract_raw_deps_with_negatives
from repro.workloads.framework import run_program
from repro.workloads.generator import ARCHETYPES, MOTIFS, generate_program
from repro.workloads.registry import all_bug_names, get_bug

CORRECT_SEEDS = (0, 1, 2, 100, 101, 102)
FAILURE_SEED = 12345
SPEC_SEEDS = (3, 7)
LINE = 64


def _cases():
    """``(name, program factory)`` for every pinned program."""
    for name in all_bug_names():
        yield name, lambda n=name: get_bug(n)
    for archetype, motif, seed in itertools.product(ARCHETYPES, MOTIFS,
                                                    SPEC_SEEDS):
        yield (f"gen-{archetype}-{motif}-s{seed}",
               lambda a=archetype, m=motif, s=seed: generate_program(
                   s, archetype=a, motif=m))


RUNS = [(seed, False) for seed in CORRECT_SEEDS] + [(FAILURE_SEED, True)]


def _dep_text(dep):
    if dep is None:
        return "-"
    return f"{dep.store_pc}:{dep.load_pc}:{int(dep.inter_thread)}"


def _streams_text(streams):
    lines = []
    for tid in sorted(streams):
        for rec in streams[tid]:
            lines.append(f"{tid}|{_dep_text(rec.dep)}|{rec.tid}|{rec.addr}|"
                         f"{rec.index}|{_dep_text(rec.negative)}")
        lines.append(f"end {tid}")
    return "\n".join(lines)


def _trace_text(run, quanta):
    lines = [f"failed={run.failed}", f"failure={run.failure}",
             f"steps={run.meta['steps']}", f"quanta={quanta}",
             f"n_threads={run.n_threads}"]
    for e in run.events:
        lines.append(f"{e.tid}|{e.pc}|{e.kind.value}|{e.addr}|{e.is_stack}|"
                     f"{e.taken}|{e.value!r}")
    return "\n".join(lines)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(make_program):
    """``{run label: {part: sha256}}`` for one program."""
    out = {}
    for seed, buggy in RUNS:
        with telemetry.use_registry(telemetry.Registry()) as reg:
            run = run_program(make_program(), seed=seed, buggy=buggy)
            quanta = reg.counter("sched.quanta").value
        out[f"{'buggy' if buggy else 'correct'}@{seed}"] = {
            "trace": _sha(_trace_text(run, quanta)),
            "deps": _sha(_streams_text(extract_raw_deps(run))),
            "word": _sha(_streams_text(
                extract_raw_deps_with_negatives(run))),
            "line": _sha(_streams_text(
                extract_raw_deps_with_negatives(run, granularity=LINE))),
        }
    return out


def combined(make_program):
    """One digest over every part of every run of one program."""
    parts = digests(make_program)
    return _sha("\n".join(f"{label}:{part}:{parts[label][part]}"
                          for label in sorted(parts)
                          for part in sorted(parts[label])))


CASES = dict(_cases())

# Generated from the scheduler and extractor before the per-event
# execution path was optimised; see the module docstring.
DIGESTS = {
    'aget':
        'f91848bb5cf368939aba1bfe1a88bf5cb5d228dcb957020349d8e9cf133bb3b9',
    'apache':
        '1b37fbfc71a680e23e4ad796f30926c2c531051ac5ab92ca9d460b36a5523ac5',
    'gen-atomicity-pipeline-s3':
        'e602dd20c45c559bee52878ea50ce536b99c365ee03092c7d50ae88afc16d75b',
    'gen-atomicity-pipeline-s7':
        '9277dca84c9bc60ae34005617aa90a01984515719a7c1983587443fc90951803',
    'gen-atomicity-pointer_chase-s3':
        'd81dcafbaed7b8c4f42c3c6ee692597d37fdfd9ecb761c3371d5b2aa6e95b28d',
    'gen-atomicity-pointer_chase-s7':
        'f619d722f4134bfe81f232e1c85a841f91b47ea7c2318ff9259d0d3d231083a9',
    'gen-atomicity-producer_consumer-s3':
        '9782139880b00040d36850999c7567f7a376594727632e391280d9a815892dcc',
    'gen-atomicity-producer_consumer-s7':
        '5c75570b5f3a1f2816afe7cdee1e27f3385afc23e8c2556bbc3b5018f9a26b06',
    'gen-atomicity-regular-s3':
        'cfd2096618dfe9ebcefa3d0966fec377431895bd36eb0dd604ce80c3df12da9b',
    'gen-atomicity-regular-s7':
        '55df9c57ba22db2064d19820bf2528fe029482a3643c4a41e28efdf80c7cb203',
    'gen-buffer_index-pipeline-s3':
        '7d8148109ca5e7140a85a2772be92ee8da1b02bee067f1652df63fb963dec79e',
    'gen-buffer_index-pipeline-s7':
        '5235ff3272d3e629e15808647441dae24be27e42e581ee347ca42b152848eff2',
    'gen-buffer_index-pointer_chase-s3':
        '21cd4546489d399f2697f88445ae3d987631909c37669226d39c4de9b56b777b',
    'gen-buffer_index-pointer_chase-s7':
        '6af6a54b3e7dd872f5056e1b7baeed67fa4a425d9f7777abf396570f3a4b1f93',
    'gen-buffer_index-producer_consumer-s3':
        'a44b8a87d1660c53acc334e7c8a6855058727b30381f4dfed268ac553974b149',
    'gen-buffer_index-producer_consumer-s7':
        'a76f72e9187a6e04e421bdadb7bc799889ee7ae220fb661330886716e874c898',
    'gen-buffer_index-regular-s3':
        'f611fb0b2d5f85cbd89d0055cb5dd038fcec42578f5821b4ad75ea34dbeeea8b',
    'gen-buffer_index-regular-s7':
        'b818e5d16bea1cc0a7fe7a388f2dc3ee4acadc5d909bfe87922caae5b58300ae',
    'gen-off_by_one-pipeline-s3':
        '63f51e4bb393dcfbc0314b3345c1ad62626027db11db36f7eff83dea56cc2703',
    'gen-off_by_one-pipeline-s7':
        'f7d623cd348807603ed97a36cc3484b9c84f04863ddf9b4c93c66e385b2a9838',
    'gen-off_by_one-pointer_chase-s3':
        '6dae4cb1b71d9540a213f9d0c4f1d49408d95fb0d3b340b223652a076d343a23',
    'gen-off_by_one-pointer_chase-s7':
        'b8b054e6cf46696cdd522ae3946cb2198c437cdeb54de383ba8184b7b0b51f87',
    'gen-off_by_one-producer_consumer-s3':
        '8995d4268f0ac87afc51015be13cfd89ba231217297d86b76e9009f7404d9de5',
    'gen-off_by_one-producer_consumer-s7':
        'e7e971d76f38dbc99b1c0d87f246356ee59f18420f14d916a427c35dd4f2f747',
    'gen-off_by_one-regular-s3':
        '7a747ce2621867c51471125cc3a8f83a9bde76de13e5fc8cdd2a26d23c3905b4',
    'gen-off_by_one-regular-s7':
        '5abe768f3b59ee536cc5c1fe64db9e5c7d046bbaa0219b4fdcfb1a6a5a1d83cb',
    'gen-order-pipeline-s3':
        'eff927b6bc5680bc2f370ff285360e04c26ef1171520a263e7cad523433cd9db',
    'gen-order-pipeline-s7':
        'd6244c8978fff5a950bd5afb77d9a0f66fb0227971007ce20adf3de17fd9afb6',
    'gen-order-pointer_chase-s3':
        '22bddbf5d03f2c51d6b92158f498d5aa8d52c05ee2bbfd3d71f02d417d4116a4',
    'gen-order-pointer_chase-s7':
        '47c640530874358ce397b72c848498c38f9d4a1e0490ecf4fa9674f091971444',
    'gen-order-producer_consumer-s3':
        'c37f303a09162707b42ca5bb5544a92d176c3aa3aaf7237b47ef5b02f06be91d',
    'gen-order-producer_consumer-s7':
        'c8ac9080bafe1ae4e0ca97c2682a370301374cc4be3f82be13e48a189cbb3e82',
    'gen-order-regular-s3':
        'a5003d208a819323a7ca772bf8012cb9753fa9bec9a5db100898341f88ea3e01',
    'gen-order-regular-s7':
        '88dffbbb51868307285d16e4c498a48e059ea2600a6bb3f6b16a0668a58cdea1',
    'gen-use_after_reset-pipeline-s3':
        '14afd84028f553f2933ba5e2cd4e52536fea2a93122b5d0413b6b5f23b35db06',
    'gen-use_after_reset-pipeline-s7':
        '8cf7b1da8341d6110aae8586d3bc4d73d518469bd59942947681d289ca0f8c04',
    'gen-use_after_reset-pointer_chase-s3':
        '877114d133df9275876d3a8fd4f95c03e842dce2cc4eddcb773b6dcf8b3e2d6b',
    'gen-use_after_reset-pointer_chase-s7':
        'aad6ef993898b0bdc8cbe8cfe941562a1e4914a76a72b79e3f9939cfe740109c',
    'gen-use_after_reset-producer_consumer-s3':
        'ac90c060abdbf4e7c971de406a50d7e89e5c75e3c5a57f671608ddc40c8b4c72',
    'gen-use_after_reset-producer_consumer-s7':
        'e2d5ae8dfbfc172f175ed1e7a6e75242eba149bae51914e45a4f34d32349b39f',
    'gen-use_after_reset-regular-s3':
        'aaf94b38253b40595938bfdb78c2e9d64a9d7f1871159919620f709cb1c18fa9',
    'gen-use_after_reset-regular-s7':
        'bb81bd9d342507176c6ff8c28f6a2669ae10cfb839936a593305577c3bf6f655',
    'gzip':
        '2cee348a7ff182ceb36a9b2a54f1f46b269b32426611ed41bf102d314fc8bff8',
    'memcached':
        '296fdc690b20d45efea696a46ffaa93c320192a625f3b39559ea8f968807583c',
    'mysql1':
        'e4bb8969b6d2ee3b338e6a036860e98a9438560568b5323e41441279297e0307',
    'mysql2':
        '2d4a76c6f1b47a92d5dc98e3a7787f8301f10fa026df62067e218dfbfc7ed153',
    'mysql3':
        '2601af27e29191584347df485ab548351fe2045c8891e673835a068314c378d0',
    'paste':
        '084afb52e4b6a6e1d2424eba33890a81629709ff49a5632126a2e9f3c8c53835',
    'pbzip2':
        '85b47325184ddc427e79c5ba8aa614ee7287bdbe3f0a3aa3e93bccee6cdea01d',
    'ptx':
        'f2b193337b5f7c5f93fbf901d76e5ca492eb0d57d58326325cd6b37383168a96',
    'seq':
        'f030ac772a5730b354f72937afdc619013e38833a41f95ffa5a53716264dd9dc',
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_execution_is_identical(name):
    assert combined(CASES[name]) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in sorted(CASES):
        print(f"    {case!r}:\n        {combined(CASES[case])!r},")
    print("}")
