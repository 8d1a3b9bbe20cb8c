"""Self-contained verdict records that replay through the verifiers.

A certificate pins down one claim about one subset of one Z_n: either a
verified pair (spectral or tiling) or a counterexample candidate flagged by a
scan (a tile with no spectrum found, or vice versa).  The checks map stores
named boolean outcomes; the ones a verifier can recompute are recomputed on
replay and compared bit for bit, while search-derived facts (a search
reported "none") are carried as context but never re-run.  Replaying is
therefore cheap and deterministic: a tampered set flips a recomputed check
and the replay fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .groupring import GroupRingElement, subset
from .spectral import is_spectral_pair
from .tiling import is_tiling_pair

__all__ = [
    "Certificate",
    "MalformedCertificate",
    "VersionMismatch",
    "KINDS",
    "pair_certificate",
    "candidate_certificate",
    "replay",
    "write_certificates",
    "read_certificates",
]


class MalformedCertificate(ValueError):
    """The serialized form cannot be interpreted as a certificate."""

    def __str__(self) -> str:
        return f"malformed certificate: {super().__str__()}"


class VersionMismatch(RuntimeError):
    """The certificate was produced by a different tool version."""


# kind -> names of checks that replay recomputes through a verifier
KINDS = {
    "spectral_pair": ("spectral_pair",),
    "tiling_pair": ("tiling_pair",),
    "non_spectral_tile_candidate": ("tiling_pair",),
    "non_tile_spectral_candidate": ("spectral_pair",),
}
# replayable check name -> the verifier that recomputes it
_VERIFIERS = {"spectral_pair": is_spectral_pair, "tiling_pair": is_tiling_pair}
# candidate kind -> the search-derived check it carries
_CARRIED = {
    "non_spectral_tile_candidate": "spectrum_search_none",
    "non_tile_spectral_candidate": "complement_search_none",
}


@dataclass(frozen=True)
class Certificate:
    n: int
    kind: str
    primary_set: tuple[int, ...]
    partner_set: tuple[int, ...]
    checks: tuple[tuple[str, bool], ...]  # name -> outcome, sorted by name
    tool_version: str
    seed: int | None  # RNG seed for sampled scans, None otherwise

    def check_map(self) -> dict[str, bool]:
        return dict(self.checks)

    def payload(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "primary_set": list(self.primary_set),
            "partner_set": list(self.partner_set),
            "checks": {k: v for k, v in self.checks},
            "tool_version": self.tool_version,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Certificate":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedCertificate(f"not valid JSON: {exc}") from None
        return cls.from_payload(payload)

    @classmethod
    def from_payload(cls, payload) -> "Certificate":
        if not isinstance(payload, dict):
            raise MalformedCertificate("certificate must be an object")
        try:
            n = payload["n"]
            kind = payload["kind"]
            primary = tuple(payload["primary_set"])
            partner = tuple(payload["partner_set"])
            checks = payload["checks"]
            version = payload["tool_version"]
            seed = payload["seed"]
        except (KeyError, TypeError) as exc:
            raise MalformedCertificate(f"missing or bad field: {exc}") from None
        if kind not in KINDS:
            raise MalformedCertificate(f"unknown kind {kind!r}")
        if not isinstance(n, int) or not isinstance(checks, dict):
            raise MalformedCertificate("bad field types")
        if not all(isinstance(v, bool) for v in checks.values()):
            raise MalformedCertificate("checks must map names to booleans")
        if not all(isinstance(g, int) for g in primary + partner):
            raise MalformedCertificate("set elements must be integers")
        if seed is not None and not isinstance(seed, int):
            raise MalformedCertificate("seed must be an integer or null")
        if not primary or not partner:
            raise MalformedCertificate("sets must be nonempty")
        try:  # subset refuses a modulus out of range and a residue out of range or repeated
            subset(n, primary), subset(n, partner)
        except ValueError as exc:
            raise MalformedCertificate(str(exc)) from None
        return cls(
            n=n,
            kind=kind,
            primary_set=primary,
            partner_set=partner,
            checks=tuple(sorted(checks.items())),
            tool_version=version,
            seed=seed,
        )


def pair_certificate(
    kind: str,
    a: GroupRingElement,
    partner: GroupRingElement,
    seed: int | None = None,
) -> Certificate:
    """Certificate for a directly verified spectral or tiling pair."""
    if kind not in _VERIFIERS:
        raise ValueError(f"not a pair kind: {kind}")
    return Certificate(
        n=a.n,
        kind=kind,
        primary_set=a.support,
        partner_set=partner.support,
        checks=((kind, _VERIFIERS[kind](a, partner).is_pair),),
        tool_version=__version__,
        seed=seed,
    )


def candidate_certificate(
    kind: str,
    a: GroupRingElement,
    witness: GroupRingElement,
    seed: int | None = None,
) -> Certificate:
    """Certificate for a scan-flagged class where the two verdicts disagree.

    The witness is the pair partner for the side that succeeded; the failed
    search is recorded as a carried (non-replayed) check.
    """
    if kind not in _CARRIED:
        raise ValueError(f"not a candidate kind: {kind}")
    (check,) = KINDS[kind]
    checks = ((_CARRIED[kind], True), (check, _VERIFIERS[check](a, witness).is_pair))
    return Certificate(
        n=a.n,
        kind=kind,
        primary_set=a.support,
        partner_set=witness.support,
        checks=tuple(sorted(checks)),
        tool_version=__version__,
        seed=seed,
    )


def replay(cert: Certificate) -> bool:
    """Re-run the verifier checks of a certificate and compare to the stored
    outcomes.  True means every recomputed check agrees; search-derived
    checks are not recomputed.  A version mismatch is an error, not a false.
    """
    if cert.tool_version != __version__:
        raise VersionMismatch(
            f"certificate from version {cert.tool_version}, tool is {__version__}"
        )
    stored = cert.check_map()
    a = subset(cert.n, cert.primary_set)
    partner = subset(cert.n, cert.partner_set)
    for name in KINDS[cert.kind]:
        if name not in stored:
            raise MalformedCertificate(f"missing replayable check {name!r}")
        if _VERIFIERS[name](a, partner).is_pair != stored[name]:
            return False
    return True


def write_certificates(path, certs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cert in certs:
            fh.write(cert.to_json() + "\n")


def read_certificates(path) -> list[Certificate]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Certificate.from_json(line))
    return out
