"""Golden output: ``all`` at a fixed small size renders pinned bytes.

One SHA-256 per experiment of its rendered lines (everything that is
not a bracketed timing/status line) from
``python -m repro.experiments all --job-count 16 --jobs 1 --no-cache``.
A refactor of the harness must leave every digest unchanged; a change
that moves an experiment's output on purpose re-pins that experiment's
digest and says why.
"""

import hashlib
import re

from repro.cli import main

GOLDEN = {
    "motivation": "e9b2bb9f2faf7d05b7dc3cacdfec0da0841245204ffabf22c3212097d399b01d",
    "table2": "40ef65de7629395b42672f50cdccc4e0757be9636587a65c9a227876dc0c4efa",
    "table3": "509d93488b66c2d33a226b30851cc02a00c8a87523d3356b6bfbe6f6f99dedb3",
    "fig7": "668cb4f8dec68ccbf8c4fb220a731cf8a1368e14d02c8c1fc0d27f897f31bddd",
    "fig8": "6c97c488752b3cdf81e10ec24c84d8e583140aa999e5292477815725fa5ddafd",
    "fig9": "dbdba7cd8f228a204876450cd0086dd37c1934685e3c4577571fc7b0169d22a2",
    "fig10": "cb2a473cfff68ff70d3be7b14a0a66a7762cb8354db4923f62d7391b39b0d7d3",
    "ablation-value": "8f9bf5ef2e54726cf53174bdedac1645c3df179ab312c41dd4f69d7ebc01f3a2",
    "ablation-knapsack": "e4c39d2854acb070181d149b2b751723a5f663b3100a758d9c7699d5b9f01623",
    "ablation-cycle": "79bed70b412f9c613986d22dc9db023da9876d30ddd4dc22da08ee3c982823ca",
    "ablation-placement": "d5a197a2f63af46fafc04516f5b29bee4bf88cf3bb60b6693c3fe2053db66de9",
    "ext-capacity": "c1cd09b9588897e8c4262cef2a2ac1ecc94326cf006a2e19e1d7ef811105b6e8",
    "ext-crash": "5bacbc4146be3e1ab2ac56964c8a199206a01a755ca05cd9a7c14369564129bf",
    "ext-faults": "ff9afaba0e69735bed7df69d29b8df835006f2ad4f5a462b2dfb6052f869f8e2",
    "ext-multidevice": "277a1a096af9462953d3d0e7dbb912cac5170bfa745fb44aaaca2c78aed72761",
    "ext-netchaos": "01fc74096de8ebf56e6f3efa923b89229a6483c30e678676a1a6eaf370efe796",
    "ext-oversubscription": "9938bb60b8d879d02d7fb9fd9f8610e5f211fdb4726d4346115cd6e11011734a",
    "ext-replication": "8baef23af1271dfdd6737dc642d0995b91f1b85b3352006b1ab50ecc1d059955",
}

_BLOCK_END = re.compile(r"\[([\w-]+): [\d.]+s cell-time")


def _digests(out: str) -> dict[str, str]:
    digests: dict[str, str] = {}
    block: list[str] = []
    for line in out.splitlines():
        end = _BLOCK_END.match(line)
        if end:
            text = "\n".join(block).encode()
            digests[end.group(1)] = hashlib.sha256(text).hexdigest()
            block = []
        elif not line.startswith("["):
            block.append(line)
    return digests


def test_all_renders_golden_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    argv = ["all", "--job-count", "16", "--jobs", "1", "--no-cache"]
    assert main(argv) == 0
    assert _digests(capsys.readouterr().out) == GOLDEN
