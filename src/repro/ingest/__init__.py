"""Streaming ingestion (Kafka-style) into the PSGraph pipeline."""

from repro.ingest.kafka import EdgeStreamConsumer, KafkaTopic
from repro.ingest.mutations import (
    EDGE_ADD,
    EDGE_DEL,
    VERTEX_DEL,
    Mutation,
)

__all__ = [
    "EdgeStreamConsumer",
    "KafkaTopic",
    "Mutation",
    "EDGE_ADD",
    "EDGE_DEL",
    "VERTEX_DEL",
]
