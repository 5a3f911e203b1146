"""Golden output: ``all`` at a fixed small size renders pinned bytes.

One SHA-256 per experiment of its rendered lines (everything that is
not a bracketed timing/status line) from
``python -m repro.experiments all --job-count 16 --jobs 1 --no-cache``.
A refactor of the harness must leave every digest unchanged; a change
that moves an experiment's output on purpose re-pins that experiment's
digest and says why.

``DEFAULT_GOLDEN`` pins the same digests for default-size ``all`` (no
``--job-count``). That run is too slow for the tier-1 suite, so CI's
harness job checks it instead: pipe the output of
``python -m repro.experiments all --jobs 2 --no-cache`` into
``python tests/test_experiments_golden.py``, which exits nonzero and
names each experiment whose digest moved or is missing.
"""

import hashlib
import re
import sys

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

DEFAULT_GOLDEN = {
    "motivation": "b6ef098145fb06a5d829575fc2626bc2dcec274f76bc1eb565399f06e53f4cc1",
    "table2": "dec784028487ad455a41cb36cd18435d02d538054aa403a8233734d1017a5130",
    "table3": "7ee7de491ccbab7941ea4d50b7ffc08e4f500dd8fdbd12ded0c6456d22ff48fd",
    "fig7": "74e34c78c844cb1dcded6b17d839c297d96ea48dee19eaad635fee7dbd95c853",
    "fig8": "e21c40b34b6af5ff77e556b99a872c8a09852fd810f7f30a1486faa282d7aaaf",
    "fig9": "ad92321cacf25782d2d4c0bf881d640062c1be59eeb2c181c0381ba193a81c43",
    "fig10": "b784bb9ee95e29aae6eb338e80426c54a3b924d0a3f2f32bb7316d2a23d682a2",
    "ablation-value": "0ee8af3a2c9a46a2bf88f5213a227215a4f4c1a49fb7ec75d78d023a7bf79188",
    "ablation-knapsack": "e8137394458cb8aba634784c31b753601301ebe7e26aa2d71a624838f9e9d478",
    "ablation-cycle": "e070d0fe1f45ef4f9eaed06764a3b182cf157124ee04f47d151a59b1f9e3655d",
    "ablation-placement": "881875d822f57cf43a88051beb70dd335531702dbf5821d9eef69562efa177d7",
    "ext-capacity": "21cb4db4507a60b0f6eb81f67bcac12c604b5815d0adf821821e0295b97e4c6f",
    "ext-crash": "519abf199fb69d08169b73d6bd890e1664bd7630c0611241d7203b5740117337",
    "ext-faults": "b0a52c926862706a75f1c79a4130c8b4c209cad18a429d89658831686258f3d0",
    "ext-multidevice": "26d0d5e710e705f58582dbf33014f7007607bf2cb928ed5d2e6105b350e25014",
    "ext-netchaos": "d62a966a62765b84743f0e3e2f566cf42c79e2b36eaafa0aee7e455a4651c412",
    "ext-oversubscription": "9938bb60b8d879d02d7fb9fd9f8610e5f211fdb4726d4346115cd6e11011734a",
    "ext-replication": "75b6e4e7be1e72a3ffc64b46613712edc911a971fa83b59d911e632932677449",
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


if __name__ == "__main__":
    digests = _digests(sys.stdin.read())
    moved = sorted(
        name for name in DEFAULT_GOLDEN.keys() | digests.keys()
        if digests.get(name) != DEFAULT_GOLDEN.get(name)
    )
    for name in moved:
        print(f"{name}: rendered output differs from DEFAULT_GOLDEN")
    print(f"{len(DEFAULT_GOLDEN) - len(moved)}/{len(DEFAULT_GOLDEN)} "
          "default-size digests match")
    sys.exit(1 if moved else 0)
