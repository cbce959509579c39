"""Pinned compiler outputs: P4 text, Table V rows and token streams.

Every compile input of ``perfbench/workloads.py::compile_programs`` (the
role-define variants it draws at seed 1) is compiled for both targets;
the sha256 of the emitted P4 and of the resource report row must match
the values below byte for byte.  P4 text does not depend on compile
order within a process, so these hold in any test order; IR dumps do
(global value counters) and are not pinned.

The token stream of every shipped ``.ncl`` file and every kernel
embedded in ``examples/`` is pinned the same way: kind, text, line,
column and value of each token.

Fuzzed kernels additionally run through ``compile_netcl`` under
translation validation, so every pass — mem2reg first among them — is
checked against the kernel's pre-pipeline behaviour.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.lang.lexer import Lexer
from repro.passes import PassOptions
from repro.passes.memcheck import MemoryCheckError
from tests.test_fuzz_compiler import KernelGenerator

ROOT = Path(__file__).resolve().parent.parent
NCL_DIR = ROOT / "src" / "repro" / "apps" / "netcl"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _example_kernels() -> list[tuple[str, str]]:
    out = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        for i, m in enumerate(re.finditer(r'r"""(.*?)"""', path.read_text(), re.S)):
            if "_kernel(" in m.group(1):
                out.append((f"{path.stem}[{i}]", m.group(1)))
    return out


def _programs() -> list[tuple[str, object]]:
    """The compile inputs of ``perfbench/workloads.py::compile_programs``
    at seed 1: the shipped apps, the collective and RPC roles, the
    kernels embedded in ``examples/``, and the seed-1 role defines."""
    from repro.apps import compile_app
    from repro.collective.tree import ROOT_DEVICE, compile_role, leaf_device
    from repro.core import compile_netcl
    from repro.rpc.cluster import EDGE_DEVICE, SG_DEVICE, compile_rpc_role, tor_device

    progs: list[tuple[str, object]] = []
    for app, dev in (("agg", 1), ("cache", 1), ("calc", 1),
                     ("paxos", 1), ("paxos", 2), ("paxos", 5)):
        progs.append((f"{app}@{dev}", lambda t, app=app, dev=dev: compile_app(app, dev, target=t)))
    progs.append(("collective.root", lambda t: compile_role(ROOT_DEVICE, target=t)))
    progs.append(("collective.leaf", lambda t: compile_role(leaf_device(0), rack=0, target=t)))
    for role, dev in (("edge", EDGE_DEVICE), ("sg", SG_DEVICE), ("tor", tor_device(0))):
        progs.append((
            f"rpc.{role}",
            lambda t, role=role, dev=dev: compile_rpc_role(dev, role, fanout=16, target=t),
        ))
    for label, src in _example_kernels():
        name = label.split("[")[0]
        progs.append((label, lambda t, src=src, name=name: compile_netcl(
            src, 1, target=t, program_name=name)))
    for n in (3, 4, 6):
        progs.append((
            f"agg.workers{n}",
            lambda t, n=n: compile_app("agg", 1, target=t, defines={"NUM_WORKERS": n}),
        ))
    for f in (4, 5):
        progs.append((
            f"rpc.sg.fanout{f}",
            lambda t, f=f: compile_rpc_role(SG_DEVICE, "sg", fanout=f, target=t),
        ))
    for lw, nr in ((3, 4), (5, 2), (7, 2)):
        progs.append((
            f"collective.leaf{lw}x{nr}",
            lambda t, lw=lw, nr=nr: compile_role(
                leaf_device(0), rack=0, num_racks=nr, workers_per_rack=lw, target=t
            ),
        ))
    return progs


PROGRAMS = _programs()

#: (label, target) -> (sha256 of the P4 text, sha256 of the report row)
COMPILE_GOLDEN: dict[tuple[str, str], tuple[str, str]] = {
    ("agg@1", "tna"): (
        "d3959b33c5cda276aff08876d1f7ecd2368bd8e5cce5e904fe075bbbaae99059",
        "2c8b844c1aa60f9d518bd4af630727448db57c033a57016268ece03ecb418926",
    ),
    ("agg@1", "v1model"): (
        "9f54567cd1ed34f44a20bc7e8612d82bed8440224a22d11f9170c1aee7e84e80",
        "b5f3e1e940221727d80fa44be8a99c909bf0124160b2e77922584c7316cc40c2",
    ),
    ("cache@1", "tna"): (
        "e51243998f70c7a82873f77e95245e12e57ddefdc2a84516b48d8edfcb979f2a",
        "846aacd06049b14a17f5b7a8743ec26c8cdc86664a0f19fc4adc07d51e76301d",
    ),
    ("cache@1", "v1model"): (
        "f18be5b23881e46cd7c1f1c933952ba12dadb3f6b313733d53762fdbca1eeb2b",
        "cbccd045e53581c55395511a0f818b090801ed21b76f6681c14efa7c705c1a75",
    ),
    ("calc@1", "tna"): (
        "ada8869aa09cab443dacbd8fc220a7a4fcf73c156a8472a5daac341736cadfe0",
        "9ab573a5b3a9646bc34e16e07a8123d1f402f3b7f9d92f4062e7d2592eb60499",
    ),
    ("calc@1", "v1model"): (
        "6b9f6a8fd902cd27eef490ac601608958ffcde8a082c54e38670b9d9970e8db9",
        "fc606cbdcf39d21a14d3d0e8f811a907c388d57bbf3ee858d4893c8b95fe9aa8",
    ),
    ("paxos@1", "tna"): (
        "2f9a604e1e87e6ab8b95ff5751388204d8b41cf40396cdbfb2d91d76ff80dce3",
        "8e8e1a658abe13b7eee7a92260a9b15f8b49a65b0cb7c5cb5215c53f2f612600",
    ),
    ("paxos@1", "v1model"): (
        "9251ba5182cc824335e5daa89dad135c46ef4273aec0b01b57be22dabbb76f9b",
        "837f9f8ba95504cc9c437715abdeade03217e8df668ef226509e558e5962cb27",
    ),
    ("paxos@2", "tna"): (
        "a7d27ee15d3b4be371e7d6984fa59ec06e690ab7c9ebbbdf369096d19f49963d",
        "cfde6492d3c1e348b8c152e691d0d34fc88cce212df780eebde394eb091f7458",
    ),
    ("paxos@2", "v1model"): (
        "e5d0da4c9f54e54f4bdadb47500e64c01b312118f922eea1e8c923f080b6bea5",
        "03ca2c16b528ff09d09b696a7cead97f77cc9b63ad25a26b2a3e0593d282f4cf",
    ),
    ("paxos@5", "tna"): (
        "8a2479a5393dadb43c852e07eb4d090e4a488c30fd087416fffdaf3655c1fc52",
        "01c26c32441fd8feb018b5f1720c449a63edb90f346624131b3eed40d8d3510a",
    ),
    ("paxos@5", "v1model"): (
        "454acd4be71089613a33d0b3195ca70f9fe4a66663ea7eaaa5505402fb7ebfa3",
        "d3119863265498b934e487a42fb4be8c49650183dc7ce181ee43635b8946bc32",
    ),
    ("collective.root", "tna"): (
        "c71145c1d144ebcc24fae993d6ea1d4d9ef7763b18b10a8f3d8d9f7ae3dae7dd",
        "47a49e4607918e740ebb4f27a8d4e8095f8f17789c44e180412192b9cd4e7b9e",
    ),
    ("collective.root", "v1model"): (
        "518793019e9dfe31414d0a5bc54adc52de9b812007d5493f1c5fbfa559274a75",
        "031f601e0ad6a97f141c9d4e8e18a2e58833c2c8fe78ab30db242d37787bc937",
    ),
    ("collective.leaf", "tna"): (
        "de59efe0f7048f39cea8b8948d1f140dab830c012fb6f170ca2bfa7f41cc93f7",
        "21514e78b1bccca53171758ca52c7c6550abf28be1beacfa204888421ca356e5",
    ),
    ("collective.leaf", "v1model"): (
        "bd1fcc505978301ab03fb9236bbc5300b629424607328fb017f420a0b259a5d8",
        "9c64e58acaaf186952ab4f9e209ac817924d32f0c1355ecfaeb52fa16062f692",
    ),
    ("rpc.edge", "tna"): (
        "b977d01823f046c7797591b304980a42b6fa3dde4a0a16578cedc45a59b44e77",
        "42001d818480f437de8fb543b3a751eb54478074d2b02fb3df31cbaae369741a",
    ),
    ("rpc.edge", "v1model"): (
        "799b44a32276fd801cf9b599b8a5f1ef05439efa8ee64a5c6320e8309cadfb54",
        "11c81d5a1b2927502a39b39d4218b2b31b861659337bfd736569de8ba4a5f49d",
    ),
    ("rpc.sg", "tna"): (
        "cb01ac7e8ce2ebe57b8cf0c7106be2c492b9b02b1e6b92fd01742a35b892e677",
        "1a447c683757ca74673a6a42dd9fa897e377cef50b782f1b9297086e9e05653b",
    ),
    ("rpc.sg", "v1model"): (
        "fc484bc8e8e31d2f2d7487428c32819511e1ea21b7e436b1c994a8609462ec69",
        "e47caeaf8caf35291b8441bbb073d32857a8da0af9ce746fe8a632bf4adb449a",
    ),
    ("rpc.tor", "tna"): (
        "a83bd004c048972f644ac178847ae00c9e6a71afbe51751f25ca4a92f4bcdd08",
        "e9b9e1fd1abb9a285c77a8471153cb93f8263ea723704f5b5ce0d35c535923f6",
    ),
    ("rpc.tor", "v1model"): (
        "f6ff41290d981bccf2a362928cc7d89c2eea5adc16ac087c5043f3c4c341c7a7",
        "924784d723ecf93446b819b16cd344127d05b09ca1fb418d80fad16465d5a1c1",
    ),
    ("operator_deployment[0]", "tna"): (
        "04be06ad1605571f397af4d47c4a05218ae3efdf82b1ea05f05e8b087f2ba850",
        "42ff25ec080872336fc147b7357bf87569c80fd6f36bbb140318a1727f0840f5",
    ),
    ("operator_deployment[0]", "v1model"): (
        "1d5d142f9612874fe467084d1dbc5dd4cff81665970195ee79c9905357bbb8c2",
        "a357d04714ab0eca8786f501db60dfbed6427af6033b916e327ce9b71876eaa3",
    ),
    ("quickstart[0]", "tna"): (
        "fc089061320edcb924b5a7e1cb165a0bc8001718ecafcdd3e395fe6dd425f0fd",
        "94a8afad5664d5b17d23fcc3577e08f2ca837702d3caa6f93c5dc52235a8b964",
    ),
    ("quickstart[0]", "v1model"): (
        "41e14ee955663b15446f60191e03372d36547fded3c1d254654f8e1d78770986",
        "772816b5dbf34c6738892fb327416636aa52d0ae21f483d2b9697d42472023d4",
    ),
    ("agg.workers3", "tna"): (
        "5b3bbcf83f0c07f8fa0aee98f1bfdb44f2c93c22373b3824d0c66033ddc84fef",
        "2c8b844c1aa60f9d518bd4af630727448db57c033a57016268ece03ecb418926",
    ),
    ("agg.workers3", "v1model"): (
        "3ff8a85287b9fd1db27208c23192cbd9db149be424cbf515d95aa476475a81d9",
        "b5f3e1e940221727d80fa44be8a99c909bf0124160b2e77922584c7316cc40c2",
    ),
    ("agg.workers4", "tna"): (
        "a089b6c8b1530628c39607c6a30a8c35ba9c5b18c41b24e150d9a2fae43386fb",
        "2c8b844c1aa60f9d518bd4af630727448db57c033a57016268ece03ecb418926",
    ),
    ("agg.workers4", "v1model"): (
        "8c8d83f56a2de31b21cefd5fb52543a1f6ac527961abc079ea70c8cee4c8e747",
        "b5f3e1e940221727d80fa44be8a99c909bf0124160b2e77922584c7316cc40c2",
    ),
    ("agg.workers6", "tna"): (
        "58d5c3b8bc830b59d99b88568123eaf8d4b2e5259c7fe401b1d3ca0d701d9128",
        "2c8b844c1aa60f9d518bd4af630727448db57c033a57016268ece03ecb418926",
    ),
    ("agg.workers6", "v1model"): (
        "64d18ee1a7b4796486633c8e0b499b6d4abb63bb4f6b1750564553461f46b712",
        "b5f3e1e940221727d80fa44be8a99c909bf0124160b2e77922584c7316cc40c2",
    ),
    ("rpc.sg.fanout4", "tna"): (
        "0b005823f265789e63274d1470816a8eb8f539160c6ccb8150c650f4bbe8a7c4",
        "1a447c683757ca74673a6a42dd9fa897e377cef50b782f1b9297086e9e05653b",
    ),
    ("rpc.sg.fanout4", "v1model"): (
        "18264a1c52043137d02dc05eaa144809b531811a00cf42eaca68e3a252d0a565",
        "e47caeaf8caf35291b8441bbb073d32857a8da0af9ce746fe8a632bf4adb449a",
    ),
    ("rpc.sg.fanout5", "tna"): (
        "687661939ae8d11449003dcaa34b791f29f596d622695e0ae32256afed684282",
        "1a447c683757ca74673a6a42dd9fa897e377cef50b782f1b9297086e9e05653b",
    ),
    ("rpc.sg.fanout5", "v1model"): (
        "547302928a3aae1a36b663af46e4524b87d457e24558aa4713269158f3312119",
        "e47caeaf8caf35291b8441bbb073d32857a8da0af9ce746fe8a632bf4adb449a",
    ),
    ("collective.leaf3x4", "tna"): (
        "978075996686bf69aa5e1c5f515b5e57dfd2c0d2f0d66fb4f29a30d45704825a",
        "21514e78b1bccca53171758ca52c7c6550abf28be1beacfa204888421ca356e5",
    ),
    ("collective.leaf3x4", "v1model"): (
        "59ab83b98c9fdb8bda372eb5d05c6fd7eac883a337be41ed49cdf908d1c050f4",
        "9c64e58acaaf186952ab4f9e209ac817924d32f0c1355ecfaeb52fa16062f692",
    ),
    ("collective.leaf5x2", "tna"): (
        "1146f34ac2955ffb71bdf1d6f4de82b40637d9e6c6eae25d76ce73ae1617807c",
        "21514e78b1bccca53171758ca52c7c6550abf28be1beacfa204888421ca356e5",
    ),
    ("collective.leaf5x2", "v1model"): (
        "0fe797ca39de82c84b1d49093e228e442da7199a28c29a197fdb595d14c70980",
        "9c64e58acaaf186952ab4f9e209ac817924d32f0c1355ecfaeb52fa16062f692",
    ),
    ("collective.leaf7x2", "tna"): (
        "4f3cecb08146b9fba155570299eff8e04102d033897b62d2023fb7a4ba4002c3",
        "21514e78b1bccca53171758ca52c7c6550abf28be1beacfa204888421ca356e5",
    ),
    ("collective.leaf7x2", "v1model"): (
        "c508ff4e6f47ec3810b9b44aa7ddc243ce44f3eb6a34efdf0a3abaa8174bcc0b",
        "9c64e58acaaf186952ab4f9e209ac817924d32f0c1355ecfaeb52fa16062f692",
    ),
}


def compile_digests(label: str, build, target: str) -> tuple[str, str]:
    cp = build(target)
    row = json.dumps(cp.report.row(), sort_keys=True)
    return _sha(cp.p4_source), _sha(row)


def test_every_benchmark_input_is_pinned():
    labels = {label for label, _ in PROGRAMS}
    assert len(PROGRAMS) == len(labels) == 21
    assert {k for k in COMPILE_GOLDEN} == {
        (label, t) for label in labels for t in ("tna", "v1model")
    }


@pytest.mark.parametrize("target", ["tna", "v1model"])
@pytest.mark.parametrize("label,build", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_compile_output_matches_golden(label, build, target):
    assert compile_digests(label, build, target) == COMPILE_GOLDEN[(label, target)]


# -- token streams ---------------------------------------------------------------------


def _lex_inputs() -> list[tuple[str, str, dict]]:
    inputs = [(p.name, p.read_text(), {}) for p in sorted(NCL_DIR.glob("*.ncl"))]
    inputs.append(("agg.ncl+NUM_WORKERS=5", (NCL_DIR / "agg.ncl").read_text(),
                   {"NUM_WORKERS": 5}))
    inputs.extend((label, src, {}) for label, src in _example_kernels())
    return inputs


LEX_INPUTS = _lex_inputs()


def token_digest(src: str, defines: dict) -> str:
    toks = Lexer(src, defines or None).tokens
    return _sha("\n".join(
        f"{t.kind.name}\t{t.text}\t{t.line}\t{t.col}\t{t.value}" for t in toks
    ))


#: input label -> sha256 of its token stream
TOKEN_GOLDEN: dict[str, str] = {
    "agg.ncl": "702c52b34be9b144990bc50350feba9c94fc49bdc9adf66e26bf522ed9297e96",
    "cache.ncl": "790b1461bfac78da03cc606438f32ded113968294065b105b0276991420cd7fc",
    "calc.ncl": "1aa34aa8ce7e0209208eab8cf3d02ae49d6d4a9992d9bd0d773284adbd182532",
    "collective.ncl": "19ad6ff766f28eec36bb58da71de70e52a2ef49cf0ac4ca65253c30c18fc30e5",
    "paxos.ncl": "08740f79e9a61da4f46b2a8b28f8ad8744f402dff58879893d48fb27dc91f280",
    "rpc.ncl": "3ad2d473c738ab71c990625e997a4477f7c279dcaed97fb4502b69a114d0417d",
    "agg.ncl+NUM_WORKERS=5": "cf6cdfbddd6c035283a649d84e62276b5e86391d19328455cdf51ed96e08391c",
    "operator_deployment[0]": "96f1e44b4be7b8119b8f421494327e52d84ae6e180eff5c3d178a82fc3ed26a0",
    "quickstart[0]": "92f63ae0007586fee9b2b50656925cec644919edea273a403cae50453d59c5b5",
}


def test_every_lexer_input_is_pinned():
    assert {label for label, _, _ in LEX_INPUTS} == set(TOKEN_GOLDEN)


@pytest.mark.parametrize("label,src,defines", LEX_INPUTS, ids=[i[0] for i in LEX_INPUTS])
def test_token_stream_matches_golden(label, src, defines):
    assert token_digest(src, defines) == TOKEN_GOLDEN[label]


# -- fuzzed kernels under translation validation --------------------------------------


@pytest.mark.parametrize("seed", range(100, 140))
def test_fuzzed_kernel_compiles_under_translation_validation(seed):
    """``compile_netcl`` with ``verify_passes`` raises on the first pass
    whose output diverges from the kernel's pre-pipeline behaviour."""
    from repro.core import compile_netcl

    src = KernelGenerator(seed).generate()
    for target in ("v1model", "tna"):
        try:
            compile_netcl(src, 1, target=target, fit=False,
                          options=PassOptions(target=target, verify_passes=True))
        except MemoryCheckError:
            continue  # random program violates Tofino memory rules: fine
