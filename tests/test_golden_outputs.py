"""Byte-identity of CLI stdout.

Each digest is the SHA-256 of the stdout of one CLI run, recorded before
the settings objects and the heatmap thread pool were removed.  A
refactor that reorders a float operation moves one of these digests.
"""

import hashlib

import pytest

from blaschke_lab.cli import main

SQUARE = '{"type":"blaschke","lambda":[1,0],"zeros":[[0,0],[0,0]]}'

GOLDEN = [
    (["verify", "theorem-a", "--seed", "1", "--cases", "3", "--targets", "5"],
     "8d6c7cab23342534690250c3b738b43f86b596f6253f64854bb854939800ad82"),
    (["verify", "theorem-b", "--seed", "1", "--cases", "5"],
     "bf425a114f8dbc4b8df64691f7e841d93f00e7f68fe77520accdba3378d58afb"),
    (["verify", "theorem-c", "--seed", "1", "--cases", "5", "--mobius-cases", "3"],
     "6ad4421648de1ba2821d4f791da7a79b3b469e399acaa2117e8c85c0b4676943"),
    (["heatmap", "--map", SQUARE, "--resolution", "16", "--radius", "0.99"],
     "9b4c4edffcca5b5377a686c3fa8f0edff2df85062a2d1726cb183857b89d7327"),
    (["valence", "--map", "atomic-inner", "--w", "0.36787944117144233",
      "--schedule", "0.9,0.99,0.999"],
     "2ec0486d10ccdf527c15d3936f9e25612434112a89a9abdea88065c6cb6d715a"),
    (["verify", "theorem-3-1", "--candidate", "atomic-inner"],
     "a2bba0a3f9758e11fd93b432bdcbc7bda4d4a3019f707ba746daf29b485ce488"),
    (["verify", "theorem-3-1", "--candidate", "slit-power"],
     "c69b38c81267c69aa88d9e4113240828d94e9734e5466a0607251f04f33ae6f9"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[:2]) + f"-{i}"
                                                    for i, (a, _) in enumerate(GOLDEN)])
def test_stdout_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
