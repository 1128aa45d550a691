"""Golden outputs: the sha256 of every file small CLI calls write, and of the
packed adjacency rows every generator returns.

Each call runs in its own temporary directory with a relative output
directory, so the ``params`` echo in summary.json is path-independent. The
``created`` timestamp line is the only part of a JSON file left out of its
digest; every other byte counts. A refactor of the chains or the harness must
leave all of these digests unchanged, and so must any change to the graph
generators: the packed-rows cases straddle byte and 64-row boundaries in n,
k and k + m. The landscape-scan digests also pin the sampled estimator's draw
stream, so a change to that sampler re-pins them once, on purpose.
"""

import hashlib
import re
from pathlib import Path

import pytest

from plantedclique import gen_contaminated, gen_coupled, gen_er, gen_planted
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
    # n not a multiple of 8: the state's key buffer carries padding entries
    "run-gd-full-odd-n": run_call(n=123),
    "run-gd-empty-drift": run_call(init="empty", tie="drift:1",
                                   max_steps=2000),
    "run-gibbs-record-every": run_call(chain="gibbs", beta=30.0,
                                       max_steps=900, hold_window=60,
                                       record_every=7, seeds="0..1"),
    # beta = 60 > ln 121 + 54 ln 2: cold steps. Seeds 0 and 1 hold with one
    # 1000-step stay run across t = 999 -> 1000; seed 2 leaves 342 short runs
    "run-gibbs-cold-hold": run_call(chain="gibbs", beta=60.0, max_steps=1500,
                                    hold_window=1000),
    "run-contaminated": run_call(model="contaminated", m=12, q=0.7,
                                 gamma="7/2"),
    "run-er": run_call(model="er", k=0, init="empty", tie="drift:1",
                       seeds="0..1"),
    "run-jobs-2": run_call(jobs=2),
    "sweep-gamma": ({"cfg": RUN_CONFIG.format(**{**GD_FULL, "seeds": "0..1"})},
                    ["sweep", "--config", "exp.cfg", "--param", "gamma",
                     "--values", "2,9/2"]),
    # the k=20 cell is run-gd-full, written into its own directory
    "sweep-k": ({"cfg": RUN_CONFIG.format(**GD_FULL)},
                ["sweep", "--config", "exp.cfg", "--param", "k",
                 "--values", "15,20"]),
    "peel": ({}, ["peel", "--n", "100", "--k", "20", "--seeds", "0..1",
                  "--stop-n2", "8", "--out-dir", "out"]),
    "peel-contaminated-c1": ({}, ["peel", "--n", "120", "--k", "20", "--m",
                                  "12", "--q", "0.7", "--seeds", "0..1",
                                  "--stop-n2", "10", "--c1", "2.5",
                                  "--out-dir", "out"]),
    "peel-no-stop": ({}, ["peel", "--n", "60", "--k", "12", "--seeds", "3",
                          "--out-dir", "out"]),
    "generate-er": ({}, ["generate", "--model", "er", "--n", "70", "--seed",
                         "3", "--out", "out/g.bin", "--edge-list",
                         "out/g.txt"]),
    "generate-planted": ({}, ["generate", "--model", "planted", "--n", "70",
                              "--k", "12", "--seed", "4", "--out",
                              "out/g.bin", "--edge-list", "out/g.txt"]),
    "generate-contaminated": ({}, ["generate", "--model", "contaminated",
                                   "--n", "70", "--k", "10", "--m", "60",
                                   "--q", "0.7", "--seed", "5", "--out",
                                   "out/g.bin", "--edge-list", "out/g.txt"]),
    "coupled": ({}, ["coupled", "--n", "150", "--k", "15", "--seeds", "0..2",
                     "--max-steps", "2000", "--out-dir", "out"]),
    # seed 5's unique argmin is not the clique
    "landscape-brute": ({}, ["landscape", "--mode", "brute", "--n", "12",
                             "--k", "8", "--gamma", "2", "--seeds", "0..5",
                             "--out-dir", "out"]),
    # C(48, 3) = 17296 fits the budget (exhaustive); C(48, 4) does not, so
    # m = 4 pins the sampled estimator's draws
    "landscape-scan": ({}, ["landscape", "--mode", "scan", "--n", "64",
                            "--k", "16", "--gamma", "10", "--m-values", "3,4",
                            "--budget", "20000", "--seeds", "0..1",
                            "--out-dir", "out"]),
    "landscape-kappa": ({}, ["landscape", "--preset", "kappa-table",
                             "--out-dir", "out"]),
}

_CREATED = re.compile(rb'^  "created": "[^"\n]*",\n', re.MULTILINE)


def output_digests(argv, files, cwd: Path) -> dict:
    for name, text in files.items():
        (cwd / f"exp.{name}").write_text(text)
    (cwd / "out").mkdir()
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
    'generate-contaminated': {
        'g.bin':
            '9e95c68cf0b26913cd31785e89622f2e999c4b583f338727453788fc08f28bce',
        'g.txt':
            'e5353860f2fcf74eacbbf4746a1997b4983ff6516aee9ee98acd7de11641b521',
    },
    'generate-er': {
        'g.bin':
            '0249331e0bd2ef9f256c8fd1491b7023d4bf312f52b54e15c0cd3d3290adb2a6',
        'g.txt':
            '45515bc4f4ac2c4df9394563d988e94a8d6f23afbb2592d200400e02322d2cb1',
    },
    'generate-planted': {
        'g.bin':
            '9fdde6b10a28d08084033c06bb001cd96ea4d819de07593d9fd83d497d3ee330',
        'g.txt':
            'dae091080ee7213b1074e9692024962c78b8671a8c1af5ed0017b562be32bff7',
    },
    'landscape-brute': {
        'brute_force.csv':
            'a1de5703e49630baf08a301d9d6040a68ebfed74c24360b365acc51a3b6e6fe6',
        'brute_force_summary.json':
            'dec5b6570af55f7b27c355433919aaebe76bae1b1b94765f9484f0ecdbfd230f',
    },
    'landscape-kappa': {
        'kappa_table.csv':
            '941c46acfbb4e4b763acb1b7a1a9c77572ae9cf7a428ca36f8bf820944b78eb2',
    },
    'landscape-scan': {
        'scan_s0.csv':
            '8c32faa66ecfa5c53c9d1bdde899b3935156eab1c4912ae34f5f4cf3435c9aba',
        'scan_s1.csv':
            '36385e49b75c5ca27c9b39753eaeac6fbf0baa08d0495e583491bc884041523a',
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
    'run-gd-full-odd-n': {
        'summary.json':
            '8782bcc5ce7bda94f0d37929a1b5cdebdff3be2c28aa7ce11360efb919364977',
        'traj_s0.csv':
            'df26e0f4e91e94bba98b64cae153d5fc7db532da38b076df3d68df734927ffe8',
        'traj_s1.csv':
            '1a460b45946a07544c9ec9cc7b9ed56bff450c41cec69ad5d4abb54f6a570818',
        'traj_s2.csv':
            '4c426ac0f87725862fc18c01e4604a3eb1a1dfc36ac45b04ed9e46a0122967a8',
    },
    'run-gibbs-record-every': {
        'summary.json':
            '01594e4afb6f6a16259f4fea47ed0b617ea03b76aa93e06f5da40f885b01f210',
        'traj_s0.csv':
            'f64af6f0a8f8a27f98ea96af9098c59f3b289d8b0c8bd9a72199520a031bd54a',
        'traj_s1.csv':
            'ba10ac112b631283ce73bdb62b74fa0822c03c28c2844f0b38d3dc3d9d0d332b',
    },
    'run-gibbs-cold-hold': {
        'summary.json':
            '991d12a7bb5630c6092be977b777a13b9799a985bd13b087c8df63130d07df85',
        'traj_s0.csv':
            'ef0de84afac50b51ede75d85afa74e21ccbbe4d3fb58cd63459ec93102cd1f5c',
        'traj_s1.csv':
            '06b8a6829db078481741c6be891bd38e90b0d0c815b866792f2baf49a6c6a7a1',
        'traj_s2.csv':
            '6ba7cf74d2c137345a5b330d0a19469a9997d2e993e8a23b043985ed4416b031',
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
    'sweep-k': {
        'k=15/summary.json':
            'baed28ce6cb552d88a6d21b60611d782e501d4de16e4c53729a5167d354292c2',
        'k=15/traj_s0.csv':
            '6472cd5d395003f30600f7f2b523beef14377fbebd5b68223d3eac320788a3e0',
        'k=15/traj_s1.csv':
            '01e6fc55d69c19a3fbe12424d6785d76ddef269188c61e3488a2faed3ddf2e2c',
        'k=15/traj_s2.csv':
            'e50ef96e8af6815ba35aa1b2d8cf170dcd13eab1111285f768b3addfdc9f4e9a',
        'k=20/summary.json':
            '76e4f51afbd675b71870268bf356ded051cf7db978d9a00af154bc056fef3488',
        'k=20/traj_s0.csv':
            '9f03a14b57847fc6d5eecf1687833d24979793f4063379c90c4ebfa3bd9ef673',
        'k=20/traj_s1.csv':
            '0c05002c3a4465baf25df0e44203e3b6145e50fe397a2fb7a8839558ad1cc021',
        'k=20/traj_s2.csv':
            '4c4db947da9e8a22be42e85faae1d604be0dbced45eb6a754e4aac0d8e8fb2a4',
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


def test_sweep_cell_is_the_plain_run():
    plain, cell = GOLDEN["run-gd-full"], GOLDEN["sweep-k"]
    assert {f"k=20/{name}": d for name, d in plain.items()
            if name != "summary.json"}.items() <= cell.items()


def packed_graphs(model, n, k, m, q, seed):
    """The graphs one generator call returns: G0 then G for ``coupled``."""
    if model == "er":
        return [gen_er(n, seed)]
    if model == "planted":
        return [gen_planted(n, k, seed).graph]
    if model == "coupled":
        g0, instance = gen_coupled(n, k, seed)
        return [g0, instance.graph]
    return [gen_contaminated(n, k, m, q, seed).graph]


# (model, n, k, m, q, seed) -> sha256 of each returned graph's packed rows
PACKED_GOLDEN = {
    ('er', 1, 0, 0, 0.5, 0): [
        '6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d',
    ],
    ('er', 7, 0, 0, 0.5, 0): [
        '41de98e5853b9451747c41e8b91bac4c283cfb4348fd43d4e4291722c553e3ca',
    ],
    ('er', 8, 0, 0, 0.5, 1): [
        'c9bbd15f0789ec9f249f693e1f3d3f46740fb896638a93064e136595e6197f4b',
    ],
    ('er', 9, 0, 0, 0.5, 2): [
        '9370a4db8f1aefcd7061a881c92a53ad15b297185c5b753714e791b9b66bf89f',
    ],
    ('er', 65, 0, 0, 0.5, 3): [
        '64662f83634c5d04d4a51be623e517ca4f2ef0392c7267a3fe7c24e8742f4fa8',
    ],
    ('er', 1003, 0, 0, 0.5, 4): [
        '01a446171d75304cd5622a79fbe799ad1a7bfcd4b96d2569508f5b243c87bfb6',
    ],
    ('planted', 1, 1, 0, 0.5, 0): [
        '6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d',
    ],
    ('planted', 7, 3, 0, 0.5, 1): [
        '17025c3cb322831e5b596105a2620c5f74b21a32746731117f3ee2eedece3361',
    ],
    ('planted', 8, 8, 0, 0.5, 2): [
        '6d0b28665a798c4c3878e401e6f9da77ecf606673866f8e86fb10c69826748b8',
    ],
    ('planted', 9, 2, 0, 0.5, 3): [
        '03dd972e6b4674efe9d7508872fb2f9ed3119dc710f4a2b1cacf8233930ca656',
    ],
    ('planted', 65, 1, 0, 0.5, 4): [
        '56125245e9337da898005169e31bd85cb8f987943294d33c66b6c1e950acd16c',
    ],
    ('planted', 65, 64, 0, 0.5, 5): [
        'a0ef78dd4e6ed44ccaebfa097b09ddd1e15d5799efd3d60cd97d671d0cf196e1',
    ],
    ('planted', 65, 65, 0, 0.5, 6): [
        '06c6cfa625e8970aa64c61d9951e84d8091670c0b8b8ab9e43969c83ffb97945',
    ],
    ('planted', 1003, 70, 0, 0.5, 7): [
        '8e0bec81ed5f9949286801223be64ee076067dfa11d290a2484d4a3dcd369c38',
    ],
    ('planted', 1003, 130, 0, 0.5, 8): [
        'ec80051aa951292db55dee5c59d9bae63a0788eba5617ce03984f1cb161edfc2',
    ],
    ('coupled', 7, 3, 0, 0.5, 0): [
        '41de98e5853b9451747c41e8b91bac4c283cfb4348fd43d4e4291722c553e3ca',
        '462a83bfc0defe1c1eeb094f5fb67ac04be56ff0837e3988db835686dd4217bf',
    ],
    ('coupled', 9, 9, 0, 0.5, 1): [
        'b96a571e3749e5659fc84818d73c33a8a29442632af9e6f6c33b99b9a58ad82c',
        '5aaefc05f220e5aed78c06ec0d3dfd88fc06e7e5bd2728baac2a53d6baa8a774',
    ],
    ('coupled', 65, 20, 0, 0.5, 2): [
        'a69c60f946bfe2403c24f682881f4c707d220b5438874d36f49d0538e1ce68a1',
        'e30eed4c2374f15ffef7837c933692de5366a1257f72ceb99c644ac977fdb2dc',
    ],
    ('coupled', 65, 65, 0, 0.5, 3): [
        '64662f83634c5d04d4a51be623e517ca4f2ef0392c7267a3fe7c24e8742f4fa8',
        '06c6cfa625e8970aa64c61d9951e84d8091670c0b8b8ab9e43969c83ffb97945',
    ],
    ('coupled', 1003, 1, 0, 0.5, 4): [
        '01a446171d75304cd5622a79fbe799ad1a7bfcd4b96d2569508f5b243c87bfb6',
        '01a446171d75304cd5622a79fbe799ad1a7bfcd4b96d2569508f5b243c87bfb6',
    ],
    ('coupled', 1003, 70, 0, 0.5, 5): [
        '84455a3d61bb4bbb322403e9ddd95d89386be6ed48c391bef124ba982a4b8b16',
        '47764a061632dc3a5cf81d59a599e29d486962bacbd66e17a8013853ea67510f',
    ],
    ('contaminated', 9, 2, 3, 0.7, 0): [
        '5cc9db9905080e00c9e95a6316a1fa12fcc390e111b940624c3ee851d3b62ab0',
    ],
    ('contaminated', 65, 30, 35, 0.75, 1): [
        '7d5a8e3339200b0c8765e7ea1513952740767ecba1bace6da9a133a972ba06d0',
    ],
    ('contaminated', 65, 60, 5, 0.9, 2): [
        '38462e9af8c475de4fad352ee75c3e96a528d59565cd62ae090c81272d784150',
    ],
    ('contaminated', 1003, 40, 50, 0.7, 3): [
        'b75a7eebd327c379916d1f4b3b864abce21997d05a3360aaa4befeb64c35caf3',
    ],
    ('contaminated', 1003, 70, 80, 0.6, 4): [
        '88f0c34d08cdba88977abc5771141b828a0464c00a14e24266b1eac65d096c98',
    ],
    ('contaminated', 1003, 100, 200, 0.55, 5): [
        '046fe1bf7460a27d51d2fdd45dd164a2088519861a0418a65a9ad32cefeeb9c9',
    ],
}


@pytest.mark.parametrize("case", sorted(PACKED_GOLDEN),
                         ids=lambda c: "-".join(map(str, c)))
def test_golden_packed_rows(case):
    digests = [hashlib.sha256(g.packed_rows.tobytes()).hexdigest()
               for g in packed_graphs(*case)]
    assert digests == PACKED_GOLDEN[case]
