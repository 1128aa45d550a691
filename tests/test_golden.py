"""Golden outputs: the sha256 of every file small CLI calls write.

Each call runs in its own temporary directory with a relative output
directory, so the ``params`` echo in summary.json is path-independent. The
``created`` timestamp line is the only part of a JSON file left out of its
digest; every other byte counts. A refactor of the chains or the harness must
leave all of these digests unchanged.
"""

import hashlib
import re
from pathlib import Path

import pytest

from plantedclique.cli import main

RUN_CONFIG = """\
version = 1
task = run
model = {model}
n = {n}
k = {k}
m = {m}
q = {q}
chain = {chain}
gamma = {gamma}
beta = {beta}
tie_policy = {tie}
init = {init}
max_steps = {max_steps}
seeds = {seeds}
hold_window = {hold_window}
record_every = {record_every}
out_dir = out
jobs = {jobs}
"""

GD_FULL = dict(model="planted", n=120, k=20, m=0, q=0.5, chain="gd",
               gamma="4", beta=0.0, tie="halt", init="full", max_steps=400,
               seeds="0..2", hold_window=0, record_every=1, jobs=1)


def run_call(**overrides):
    return {"cfg": RUN_CONFIG.format(**{**GD_FULL, **overrides})}, \
        ["run", "--config", "exp.cfg"]


CALLS = {
    "run-gd-full": run_call(),
    "run-gd-empty-drift": run_call(init="empty", tie="drift:1",
                                   max_steps=2000),
    "run-gibbs-record-every": run_call(chain="gibbs", beta=30.0,
                                       max_steps=900, hold_window=60,
                                       record_every=7, seeds="0..1"),
    "run-contaminated": run_call(model="contaminated", m=12, q=0.7,
                                 gamma="7/2"),
    "run-er": run_call(model="er", k=0, init="empty", tie="drift:1",
                       seeds="0..1"),
    "run-jobs-2": run_call(jobs=2),
    "sweep-gamma": ({"cfg": RUN_CONFIG.format(**{**GD_FULL, "seeds": "0..1"})},
                    ["sweep", "--config", "exp.cfg", "--param", "gamma",
                     "--values", "2,9/2"]),
    "peel": ({}, ["peel", "--n", "100", "--k", "20", "--seeds", "0..1",
                  "--stop-n2", "8", "--out-dir", "out"]),
    "peel-contaminated-c1": ({}, ["peel", "--n", "120", "--k", "20", "--m",
                                  "12", "--q", "0.7", "--seeds", "0..1",
                                  "--stop-n2", "10", "--c1", "2.5",
                                  "--out-dir", "out"]),
    "peel-no-stop": ({}, ["peel", "--n", "60", "--k", "12", "--seeds", "3",
                          "--out-dir", "out"]),
    "coupled": ({}, ["coupled", "--n", "150", "--k", "15", "--seeds", "0..2",
                     "--max-steps", "2000", "--out-dir", "out"]),
}

_CREATED = re.compile(rb'^  "created": "[^"\n]*",\n', re.MULTILINE)


def output_digests(argv, files, cwd: Path) -> dict:
    for name, text in files.items():
        (cwd / f"exp.{name}").write_text(text)
    assert main(argv) == 0
    out = {}
    for path in sorted((cwd / "out").rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = _CREATED.sub(b"", data, count=1)
            out[path.relative_to(cwd / "out").as_posix()] = \
                hashlib.sha256(data).hexdigest()
    return out


GOLDEN = {
    'coupled': {
        'coupled_planted_s0.csv':
            '32db70fcbc48326da410108f1db816c80e60a59c5310c82d06af1644aedd3da8',
        'coupled_planted_s1.csv':
            'ede595c7d929f82494240266095fff9f84b7612e450d2900ce7ff6cbaa9d5693',
        'coupled_planted_s2.csv':
            '6550f372c78d989241a5272eeecea3bf5675bb6df9f7a177c968d16733f1c218',
        'coupled_unplanted_s0.csv':
            'e8802729c1ee9e876307ddfe1b8fcde7fafe6ccccbc133fb0f7c808cd79d8427',
        'coupled_unplanted_s1.csv':
            'd2701d32cd6700f8b2dfabab6a7dda9b34d3f28ae16efe861af0b3bfd597ad69',
        'coupled_unplanted_s2.csv':
            '6550f372c78d989241a5272eeecea3bf5675bb6df9f7a177c968d16733f1c218',
        'summary.json':
            'b58eab5a555b13c4c281aed437514c10aad81be91eb765a10d2410d0a2ffa9a9',
    },
    'peel': {
        'peel_counts_s0.csv':
            '1fbe9987590195c4a3a7ef47803a39f35ad91a6e5737d900e499817db313b120',
        'peel_counts_s1.csv':
            '1fbe9987590195c4a3a7ef47803a39f35ad91a6e5737d900e499817db313b120',
        'peel_diag_s0.json':
            'd903263b520f4de0f31f2e0c35857b9891ba6d26f0998f5c535c6245f99abe90',
        'peel_diag_s1.json':
            'd903263b520f4de0f31f2e0c35857b9891ba6d26f0998f5c535c6245f99abe90',
        'peel_s0.csv':
            'f94c250478a60db98d7bb2b92bf615b57b6c0eae7ed04949ab6a563017dd1ead',
        'peel_s1.csv':
            'ce0cb849f3a684652d468a92a69bced3eff6163feb8a8f8d16687858a8a58acd',
        'summary.json':
            '7d5d523e0b41eeedfa0997e4860be082c826c4605854f91de48f4debe056b495',
    },
    'peel-contaminated-c1': {
        'peel_counts_s0.csv':
            '28b59b9f675a2ad4c4a4f7b19691280b8eeff8204f3e0b4be2da6a37fc904fd9',
        'peel_counts_s1.csv':
            '5c7015b046c744bf3e1c4bb096de38cd015995257ded13855f54e70808f93924',
        'peel_diag_s0.json':
            'c32dd6aef5e6932d0baa5c783ccbc57f3bca10c15e2733139eedbda7783a092d',
        'peel_diag_s1.json':
            'f0eeaf86407ae438c41cafd6d2215bfea76f216d44c5473630afbb09ab4e798e',
        'peel_s0.csv':
            '1e3f299dd71778fde91ba409141bf51b9dc7e278db35b92b0641b9f9babf66c1',
        'peel_s1.csv':
            '37ae2324dcfc12d18ed81b92a13279904fb23b0985aa443f0d6980629b85d55c',
        'summary.json':
            'e156ca20c4e658bac4e3d996952b9b58c242dfcde10ee449948662ee98d78b14',
    },
    'peel-no-stop': {
        'peel_counts_s3.csv':
            'cb851b3dd55740d100e423317548672e919b89894811e8891884ac5b06b07ba8',
        'peel_diag_s3.json':
            '864afe129ff1b88142c7060921615037528704a7c14aa6d5ead972b3976b7f30',
        'peel_s3.csv':
            'e51aa50640f39221e8ea04354445097162f26daf79f9235ece4e4c5fa8dcc01a',
        'summary.json':
            '39ffcc77a988fda9d6d107a8aae198890ed050ea5b49a39ca7c7bfcf82816d68',
    },
    'run-contaminated': {
        'summary.json':
            '861aab9b4949ea40eb24e3d2a19b27e1db0048e52772cbd2ff19118ddddfdcb9',
        'traj_s0.csv':
            '50cc24671f0578020feb652a2be160a4a7cb7d601660def52b7ad98a8a94652e',
        'traj_s1.csv':
            'fc140e0ad51b9f6d7dd643be8568e45a984f82aa9fe416315b80d1db171f1468',
        'traj_s2.csv':
            'd350f092d7d8fca0ed5070108c2c12b7ad69b0e771a0324667b5895d2cf8d2e9',
    },
    'run-er': {
        'summary.json':
            '4d57c22363f85aa5cb54eac17a25f5cc8d7334021e35cd5cb1cc8878ec799b1a',
        'traj_s0.csv':
            'a5ef6649cae1404d66cbc08e71d78b82e18892a967896059b2b9346af20791c9',
        'traj_s1.csv':
            '47634bd7b2cd70bb4d0c621800443b866347262ab1f1ae8342f368c4a77b4bd3',
    },
    'run-gd-empty-drift': {
        'summary.json':
            '47587e0a920125dd03e4b5c4e2019e5b109a0449dd2ba5178805e33b74654627',
        'traj_s0.csv':
            'bc4ccb0344a13fc342b8c7fb1ddd846ac5612b70afcf67328fa9f92d74d5eacc',
        'traj_s1.csv':
            'adba1016a450fdafeecbc6df5fd4e7b4e72135ad7a005c59a397cc7c44508a15',
        'traj_s2.csv':
            'a7a5d3a81e8b6879e100ac09de38b567aafa70bbe55e3f6280ea12dcc1736746',
    },
    'run-gd-full': {
        'summary.json':
            '19d927463b7e152dd5a54d496e2fa0b0614916617d72b49bff463b6673762788',
        'traj_s0.csv':
            '9f03a14b57847fc6d5eecf1687833d24979793f4063379c90c4ebfa3bd9ef673',
        'traj_s1.csv':
            '0c05002c3a4465baf25df0e44203e3b6145e50fe397a2fb7a8839558ad1cc021',
        'traj_s2.csv':
            '4c4db947da9e8a22be42e85faae1d604be0dbced45eb6a754e4aac0d8e8fb2a4',
    },
    'run-gibbs-record-every': {
        'summary.json':
            '01594e4afb6f6a16259f4fea47ed0b617ea03b76aa93e06f5da40f885b01f210',
        'traj_s0.csv':
            'f64af6f0a8f8a27f98ea96af9098c59f3b289d8b0c8bd9a72199520a031bd54a',
        'traj_s1.csv':
            'ba10ac112b631283ce73bdb62b74fa0822c03c28c2844f0b38d3dc3d9d0d332b',
    },
    'run-jobs-2': {
        'summary.json':
            'f6e9df7b50bb0a25f3c80b4ddb9d18b956a7802c3c902181ab85aaf196d5ad86',
        'traj_s0.csv':
            '9f03a14b57847fc6d5eecf1687833d24979793f4063379c90c4ebfa3bd9ef673',
        'traj_s1.csv':
            '0c05002c3a4465baf25df0e44203e3b6145e50fe397a2fb7a8839558ad1cc021',
        'traj_s2.csv':
            '4c4db947da9e8a22be42e85faae1d604be0dbced45eb6a754e4aac0d8e8fb2a4',
    },
    'sweep-gamma': {
        'gamma=2/summary.json':
            '80d667060fbeb5b983f5161ae7c21de368f47c2d43628b1eb9c73b82f8be3cdd',
        'gamma=2/traj_s0.csv':
            'd7d0e7814abcc4e82e86fa17ce05c27ae0958f02b659ac83b1068d94856efefa',
        'gamma=2/traj_s1.csv':
            'b06339d7a2e7f2d3a629a2c9ef9b76f4171a1b8367a1319502dfdfc05ebb9de2',
        'gamma=9/2/summary.json':
            '284c0931244c8b8e3057b35feb82005c624fad28861446494e6f9312ee3e329c',
        'gamma=9/2/traj_s0.csv':
            'bbb99f4811c7f965e5438e1e596324295e0b758fd0688f3fd0116299627cf7a0',
        'gamma=9/2/traj_s1.csv':
            'c717c0a37bedb941872eef2d6cbc03a3677d14806b1a0dd2b58a6cfe793413a5',
    },
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_outputs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    files, argv = CALLS[name]
    assert output_digests(argv, files, tmp_path) == GOLDEN[name]


def test_jobs_change_only_the_params_echo():
    serial, parallel = GOLDEN["run-gd-full"], GOLDEN["run-jobs-2"]
    assert serial.keys() == parallel.keys()
    assert [k for k in serial if serial[k] != parallel[k]] == ["summary.json"]
