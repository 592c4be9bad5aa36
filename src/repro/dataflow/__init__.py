"""Spark-like dataflow engine: lazy RDDs, DAG scheduler, metered shuffle."""

from repro.dataflow.context import SparkContext
from repro.dataflow.dataframe import DataFrame
from repro.dataflow.executor import Executor
from repro.dataflow.partitioner import HashPartitioner, Partitioner
from repro.dataflow.rdd import RDD
from repro.dataflow.shuffle import ShuffleOutputLostError, ShuffleService
from repro.dataflow.taskctx import TaskContext, current_task_context

__all__ = [
    "DataFrame",
    "Executor",
    "HashPartitioner",
    "Partitioner",
    "RDD",
    "ShuffleOutputLostError",
    "ShuffleService",
    "SparkContext",
    "TaskContext",
    "current_task_context",
]
