"""Supervised severity classification: schema, trainers, indices, metrics."""
