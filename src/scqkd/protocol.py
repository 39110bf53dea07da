"""Round structure: signal choice, announcements, sifting, and bit derivation.

Each rule is stated once per sifting kind (ProtocolKind.excludes_outcomes).
The trine and tetrahedron sift by exclusion: Bob measures with the antipodal
code of n signals and announces an ordered tuple of n - 2 outcomes he did
not obtain; Alice accepts when her signal is not excluded, each party infers
the other's index as the one neither excluded nor its own, and the key bit
is the code's permutation-symbol rule (codes.trine_key_bit,
codes.tetra_key_bit). BB84 and six-state sift by basis agreement. Bob always
announces, even when his outcome already dooms the round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Real

from .codes import ProtocolKind, SphericalCode, basis_label, eigen_bit, make_code, tetra_key_bit, trine_key_bit


def _check_unit(value, name: str) -> None:
    """Reject a config value that is not a real number in [0, 1] (bool is not one).

    The value itself is compared, not its float: a Fraction just above 1 or
    just below 0 is rejected, not rounded into range, and a huge int raises
    ValueError, not OverflowError. NaN fails both comparisons.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class Channel:
    """Transmission channel; depolarizing = 0 is the ideal channel."""

    depolarizing: object = 0

    def __post_init__(self):
        _check_unit(self.depolarizing, "depolarizing strength")


IDEAL = Channel()


def _check_instance(name: str, value, cls: type) -> None:
    """Reject an argument that is not an instance of cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_config(protocol, channel: Channel = IDEAL) -> None:
    """Reject a protocol that is not a ProtocolKind or a channel that is not a Channel."""
    _check_instance("protocol", protocol, ProtocolKind)
    _check_instance("channel", channel, Channel)


@dataclass(frozen=True)
class Announcement:
    """Public sifting message.

    Exclusion protocols fill `excluded` with n - 2 distinct outcomes (one
    index for the trine, an ordered pair for the tetrahedron). Basis
    protocols fill the basis fields; Bob's announcement knows only his own
    basis, the sender side is completed by run_round.
    """

    excluded: tuple = ()
    alice_basis: str | None = None
    bob_basis: str | None = None


@dataclass(frozen=True)
class RoundTranscript:
    """Complete record of one protocol round (rejected rounds keep j, k, announcement)."""

    protocol: ProtocolKind
    signal_index: int
    bob_outcome: int
    announcement: Announcement
    accepted: bool
    alice_bit: int | None = None
    bob_bit: int | None = None
    eve_record: "EveRecord | None" = None  # noqa: F821 - defined in eavesdrop


def bob_code(protocol: ProtocolKind) -> SphericalCode:
    """Bob measures the antipodal code for exclusion protocols, the code itself otherwise.

    Each antipodal state is orthogonal to exactly one code state; the
    basis-pair codes are their own antipode set.
    """
    if protocol.excludes_outcomes:
        return SphericalCode(states=-make_code(protocol).states)
    return make_code(protocol)


def alice_pick(protocol: ProtocolKind, u: float) -> int:
    """Uniform signal choice from one uniform variate; u = 0 maps to signal 1."""
    n = protocol.n_signals
    return min(int(u * n), n - 1) + 1


@lru_cache(maxsize=sum(kind.n_signals for kind in ProtocolKind))  # every (protocol, outcome k)
def announcement_options(protocol: ProtocolKind, k: int) -> tuple:
    """Ordered tuple of announcements Bob may make after outcome k.

    The order is fixed (the ordered (n - 2)-tuples of the other outcomes,
    lexicographically) so that a uniform variate maps to a choice
    reproducibly.
    """
    n = protocol.n_signals
    if not 1 <= k <= n:
        raise ValueError(f"outcome index {k} out of range 1..{n}")
    if protocol.excludes_outcomes:
        others = [i for i in range(1, n + 1) if i != k]
        return tuple(Announcement(excluded=e) for e in itertools.permutations(others, n - 2))
    return (Announcement(bob_basis=basis_label(k)),)


def bob_announce(protocol: ProtocolKind, k: int, u: float) -> Announcement:
    """Bob's announcement after outcome k, chosen uniformly from the legal options.

    Exclusion protocols announce outcomes Bob did not obtain; basis protocols
    announce his measurement basis (the variate is accepted but unused there,
    keeping the per-round variate layout fixed).
    """
    options = announcement_options(protocol, k)
    return options[min(int(u * len(options)), len(options) - 1)]


def sift_accept(protocol: ProtocolKind, j: int, ann: Announcement) -> bool:
    """Alice's accept/reject decision from her signal and the announcement."""
    if protocol.excludes_outcomes:
        return j not in ann.excluded
    return basis_label(j) == ann.bob_basis


# the paper's key-bit rule of each exclusion code, on the full index assignment (alice, bob, *excluded)
_KEY_BIT = {ProtocolKind.TRINE: trine_key_bit, ProtocolKind.TETRAHEDRON: tetra_key_bit}


def _party_bit(protocol: ProtocolKind, side: str, index: int, ann: Announcement):
    """The key bit of the `side` party holding `index`; None if the announcement rules it out.

    Exclusion protocols: the party infers the counterpart index as the one
    neither excluded nor its own, n(n+1)/2 less the others, and the
    permutation-symbol rule of the ordered (alice, bob, *excluded) indices
    gives the bit. Basis protocols: the index's eigenvalue bit when its
    basis is the announced one. Eve's guess is the same rule applied to her
    outcome on the side she impersonates.

    Raises:
        ValueError: if an exclusion is not n - 2 distinct outcomes in 1..n.
    """
    if protocol.excludes_outcomes:
        n = protocol.n_signals
        if len(ann.excluded) != n - 2 or len(set(ann.excluded)) != n - 2:
            raise ValueError(f"announcement must exclude n - 2 = {n - 2} distinct outcomes, got {ann.excluded!r}")
        if not all(1 <= e <= n for e in ann.excluded):
            raise ValueError(f"announced exclusion {ann.excluded!r} out of range 1..{n}")
        if index in ann.excluded:
            return None
        partner = n * (n + 1) // 2 - index - sum(ann.excluded)
        pair = (index, partner) if side == "alice" else (partner, index)
        return _KEY_BIT[protocol](*pair, *ann.excluded)
    if basis_label(index) != ann.bob_basis:
        return None
    return eigen_bit(index)


def derive_bits(protocol: ProtocolKind, j: int, k: int, ann: Announcement) -> tuple:
    """Key bits (alice_bit, bob_bit) for an accepted round.

    Each party infers the other's index as the one not excluded and not its
    own; a noisy round where Bob's outcome equals the signal makes those
    inferences collide on the same wrong index, so the bits always disagree.

    Raises:
        ValueError: if the announcement is malformed or inconsistent with j or k.
    """
    n = protocol.n_signals
    if not 1 <= j <= n or not 1 <= k <= n:
        raise ValueError(f"signal/outcome index out of range 1..{n}: {(j, k)}")
    if protocol.excludes_outcomes:
        if k in ann.excluded:
            raise ValueError("announcement excludes Bob's actual outcome")
        if j in ann.excluded:
            raise ValueError("round was not accepted: signal is excluded")
    elif ann.bob_basis != basis_label(k):
        raise ValueError("announced basis inconsistent with Bob's outcome")
    elif ann.alice_basis is not None and ann.alice_basis != basis_label(j):
        raise ValueError("announced basis inconsistent with Alice's signal")
    elif basis_label(j) != ann.bob_basis:
        raise ValueError("round was not accepted: bases differ")
    return _party_bit(protocol, "alice", j, ann), _party_bit(protocol, "bob", k, ann)


def run_round(protocol: ProtocolKind, eve, channel: Channel, rng) -> RoundTranscript:
    """Execute one round: Alice -> Eve -> channel -> Bob -> announcements.

    Consumes one aligned block of 8 uniforms from rng (6 named variates in
    fixed order: Alice pick, Eve coin, Eve ensemble coin, Eve outcome, Bob
    outcome, announcement; 2 reserved), so transcripts are replayable from
    (seed, round index) alone.

    Args:
        protocol: which protocol to run.
        eve: eavesdropping strategy, or None for no eavesdropper.
        channel: transmission channel, applied after any interception.
        rng: numpy Generator; exactly rng.random(8) is consumed.

    Returns:
        RoundTranscript; rejected rounds still record signal, outcome and
        announcement but carry no key bits.
    """
    from .eavesdrop import _side_gentle_povm, intercept_with_uniforms  # cycle: protocol <-> eavesdrop
    from .states import depolarize, sample_outcome  # numpy: only the matrix path loads it

    u = rng.random(8)
    j = alice_pick(protocol, u[0])
    rho = make_code(protocol).state(j)
    rho, record = intercept_with_uniforms(eve, protocol, rho, u[1], u[2], u[3])
    rho = depolarize(rho, channel.depolarizing)
    k = sample_outcome(rho, _side_gentle_povm(protocol, "bob", 1), u[4])  # Bob's code POVM
    ann = bob_announce(protocol, k, u[5])
    if not protocol.excludes_outcomes:
        ann = replace(ann, alice_basis=basis_label(j))
    accepted = sift_accept(protocol, j, ann)
    alice_bit = bob_bit = None
    if accepted:
        alice_bit, bob_bit = derive_bits(protocol, j, k, ann)
    return RoundTranscript(
        protocol=protocol,
        signal_index=j,
        bob_outcome=k,
        announcement=ann,
        accepted=accepted,
        alice_bit=alice_bit,
        bob_bit=bob_bit,
        eve_record=record,
    )
