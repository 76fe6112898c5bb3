"""Tests for the fail-closed label classifier.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402


class LayerClassifierTest(unittest.TestCase):
    def test_every_protocol_label_has_one_layer(self):
        self.assertFalse(layers.CORE_LABELS & layers.PUBSUB_LABELS)
        for label in layers.CORE_LABELS:
            self.assertEqual(layers.layer_of(label), "core")
        for label in layers.PUBSUB_LABELS:
            self.assertEqual(layers.layer_of(label), "pubsub")

    def test_unknown_label_fails_closed(self):
        with self.assertRaises(layers.UnknownLabel):
            layers.layer_of("BrandNewMessage")
        with self.assertRaises(layers.UnknownLabel):
            layers.split_by_layer({"Check": [1, 35], "BrandNewMessage": [2, 10]})

    def test_split_sums_phases_per_layer(self):
        phases = [
            {"by_label": {"Check": {"count": 4, "bytes": 140},
                          "PublishNew": {"count": 2, "bytes": 96}}},
            {"by_label": {"Check": {"count": 1, "bytes": 35},
                          "SetData": {"count": 3, "bytes": 150}}},
            {"name": "no-traffic"},
        ]
        merged = layers.merge_by_label(phases)
        self.assertEqual(merged["Check"], [5, 175])
        split = layers.split_by_layer(merged)
        self.assertEqual(split["core"], {"msgs": 8, "bytes": 325})
        self.assertEqual(split["pubsub"], {"msgs": 2, "bytes": 96})


if __name__ == "__main__":
    unittest.main()
