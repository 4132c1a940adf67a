"""Golden report digests: `verify` reports must stay byte-identical.

Each case runs one `verify` argument list in process and compares the
exit code and the SHA-256 of the report's canonical_json() with the value
recorded when the case was added. A change that alters any verdict,
count, witness or parameter of these reports fails here; a change that
must alter one records the new digest and says why.
"""

import hashlib
import json

import pytest

from hlmenger.cli import main
from hlmenger.report import VerificationReport

GOLDEN = (
    ("smec --family crossed --n 4", 0,
     "36b185dde7d2f5c6e940d3644e978ff64aa1780cdbe4573c47b0da9fb7e701d9"),
    ("ft-smec --family hypercube --n 3 --m 2", 0,
     "c045ae33b2a042805008d38f3cc3011b354b26391c226a62066a30ec2892cccb"),
    ("ft-smec --family random --n 4 --seed 3 --m 5 --mode sample "
     "--samples 40 --adversarial", 1,
     "fedf105d50c15a4b825fa1920f5d202c599ca54bc9f11401b241fa5fcb30ed54"),
    ("cond-ft-smec --family crossed --n 3 --m 3", 1,
     "b070c98d8a82c7f717e2a727da32d7f49b14b5015c21dd430ab6c465779eaef1"),
    ("cond-ft-smec --family crossed --n 4 --mode sample --samples 60 "
     "--seed 8 --adversarial", 0,
     "0e33855c92997b0608465a8b4cbc103cfe111ad0a47b613981e3a3487c2729dc"),
    ("cond-ft-smec --family mobius1 --n 4 --m 7 --mode sample --samples 30 "
     "--seed 2 --adversarial --jobs 2", 1,
     "5b1a61a481aab27a013d82fdd999f29381efed538d964156f5341e0f671c9f9b"),
    ("lemma32 --family crossed --n 3", 0,
     "ba0a8c92ba82bdbc741148e6e48c6eca24b498e234daafa52bf247a8baef5750"),
    ("lemma32 --family crossed --n 3 --m 7 --mode sample --samples 400 "
     "--seed 2 --adversarial", 1,
     "4f0c0ec67acc8ba76c07f0c8c95c76d8cf0eeae8abe73848e87f618882745466"),
    ("lemma41 --family ltq --n 4 --mode sample --samples 200 --seed 4 "
     "--adversarial", 0,
     "2fa46f296f0413726329c4fdfbd5e6b0506b6177f012d15e375a67b0500d8002"),
    ("appendixA --family crossed --n 4 --mode sample --samples 200 --seed 7 "
     "--adversarial", 0,
     "680a7d7ea61d6adee3ef0cc0fa05f02fbc91111e9bfabf1d7fa95de65c62c954"),
    ("tight-uncond --family ltq --n 4 --all-witnesses", 1,
     "ba62b4f70a646d84954be6315b332322901c71c658db806cd282cc74679bf536"),
    ("tight-cond --family random --n 5 --seed 7 --all-witnesses", 1,
     "b1e52871dc17c9e243d4f3a2c11e2ddf44fede3f545013e6e71a7a7f0fc7071c"),
)


@pytest.mark.parametrize("args, code, digest", GOLDEN,
                         ids=[args for args, _, _ in GOLDEN])
def test_report_digest(capsys, args, code, digest):
    assert main(["verify", "--check", *args.split()]) == code
    report = VerificationReport.from_dict(json.loads(capsys.readouterr().out))
    assert hashlib.sha256(
        report.canonical_json().encode()).hexdigest() == digest
