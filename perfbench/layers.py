"""Message-label to layer classification for the benchmark's per-layer counts.

Every label a report's ``by_label`` section can carry is mapped to exactly one
layer. The mapping fails closed: a label it does not know raises
``UnknownLabel``, so a new message type cannot silently drop out of the
``core.*`` / ``pubsub.*`` counts — the run fails until the label is added here.
"""

# BuildSR overlay plus the supervisor (src/core/messages.hpp).
CORE_LABELS = frozenset({
    "Subscribe",
    "Unsubscribe",
    "GetConfiguration",
    "SetData",
    "Check",
    "Introduce",
    "RemoveConnections",
    "IntroduceShortcut",
})

# Algorithm 5 publication layer (src/pubsub/pubsub_node.hpp). Multi-topic
# traffic travels in a TopicEnvelope, which reports its inner message's label.
PUBSUB_LABELS = frozenset({
    "CheckTrie",
    "CheckAndPublish",
    "Publish",
    "PublishNew",
})

# Publication deliveries attempted, for pubsub.first_receipt_ratio.
PUBLICATION_LABELS = ("PublishNew", "Publish")


class UnknownLabel(ValueError):
    """A by_label entry that belongs to no known layer."""


def layer_of(label):
    if label in CORE_LABELS:
        return "core"
    if label in PUBSUB_LABELS:
        return "pubsub"
    raise UnknownLabel(f"message label {label!r} is not mapped to a layer")


def merge_by_label(phases):
    """Sums every phase's by_label counters into one {label: [count, bytes]}."""
    total = {}
    for phase in phases:
        for label, counter in phase.get("by_label", {}).items():
            cell = total.setdefault(label, [0, 0])
            cell[0] += counter["count"]
            cell[1] += counter["bytes"]
    return total


def split_by_layer(by_label):
    """{layer: {"msgs": n, "bytes": b}} for core and pubsub; raises UnknownLabel."""
    out = {"core": {"msgs": 0, "bytes": 0}, "pubsub": {"msgs": 0, "bytes": 0}}
    for label, (count, nbytes) in by_label.items():
        cell = out[layer_of(label)]
        cell["msgs"] += count
        cell["bytes"] += nbytes
    return out
