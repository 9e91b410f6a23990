"""Exact output bytes of the result records and of two CLI runs.

Round trips and schemas pass with a dropped field or a changed separator;
these literals do not.
"""

import hashlib

import pytest

from expramsey.cli import main
from expramsey.colourings import parse_colouring
from expramsey.ramsey import exp_ramsey_number, vdw_number
from expramsey.search import find_monochromatic

RECORDS = [
    (lambda: vdw_number(2, 3),
     '{"k":2,"kind":"vdw","methods_agree":true,"n_max":64,"params":{"len":3},'
     '"schema":1,"seed":0,"value":9,"witness":{"colours":[1,2,2,1,1,2,2,1],"n":8}}\n'),
    (lambda: exp_ramsey_number(1),
     '{"k":1,"kind":"exptriple","methods_agree":true,"n_max":100000,"params":{},'
     '"schema":1,"seed":0,"value":4,"witness":{"colours":[1,1,1],"n":3}}\n'),
    (lambda: exp_ramsey_number(2, 100),
     '{"k":2,"kind":"exptriple","methods_agree":null,"n_max":100,"params":{},'
     '"schema":1,"seed":0,"value":null,"witness":null}\n'),
    (lambda: find_monochromatic(parse_colouring("logstar:r=1"), "exptriple", 10**5),
     '{"bound":100000,"colouring":"logstar:r=1","family":{"bound":100000,'
     '"kind":"exptriple","strict":false},"instances_checked":29,"result":'
     '{"type":"Counterexample","witness":{"colour":1,"elements":[{"role":"a",'
     '"value":"17"},{"role":"b","value":"2"},{"role":"a^b","value":"289"}],'
     '"generators":[17,2]}},"schema":1,"seed":0}\n'),
    (lambda: find_monochromatic(parse_colouring("logstar:r=1"), "exptriple-logcond",
                                2**12, seed=5),
     '{"bound":4096,"colouring":"logstar:r=1","family":{"bound":4096,'
     '"kind":"exptriple-logcond","r":1},"instances_checked":31,"result":'
     '{"type":"AvoidanceVerified"},"schema":1,"seed":5}\n'),
]


@pytest.mark.parametrize("make,want", RECORDS)
def test_record_bytes(make, want):
    assert make().to_json() == want


# records too long to write out (exp(2)'s witness lists 65,535 colours):
# the SHA-256 of their to_json() text
RECORD_HASHES = [
    (lambda: vdw_number(2, 4),
     "a1d4cce9c1bb7fecd224ba960fc9edfec2a04307bcc1331cc7892b790f581385"),
    (lambda: vdw_number(3, 3),
     "6cb79e5be54fb284ca8e9349cd54621d8a5a8716840100f60ea09976d7c6a4bd"),
    (lambda: exp_ramsey_number(2),
     "d5739558dc45d3352b994725fbecec3710014bba8dd9a5ed7269d6f92218756e"),
    (lambda: exp_ramsey_number(3),
     "7dae2bef5f2e195e71b19d2455b56c243b72d1f8c97e1fd0d2eeda3c70442c55"),
]


@pytest.mark.parametrize("make,want", RECORD_HASHES)
def test_record_hashes(make, want):
    assert hashlib.sha256(make().to_json().encode()).hexdigest() == want


@pytest.mark.parametrize("argv,want", [
    (["gen", "fe", "2", "3"],
     '{"elements":["2","2^3","3"],"family":"fe","generators":["2","3"],'
     '"provenance":[{"exponents":[null],"i":1},{"exponents":["3"],"i":1},'
     '{"exponents":[],"i":2}],"seed":0}\n'),
    (["colour", "logstar:r=1", "2", "65536"],
     '{"assignments":[{"colour":1,"value":"2"},{"colour":1,"value":"65536"}],'
     '"colouring":"logstar:r=1","k":4,"seed":0}\n'),
])
def test_cli_json_bytes(capsys, argv, want):
    assert main(argv) == 0
    assert capsys.readouterr().out == want
