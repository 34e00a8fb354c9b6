"""Shared canonical fixtures: the four-process example graphs (one baseline
plus three interacting processes, in plain and contemporaneous variants) and
the standard mediation topologies."""

import numpy as np
import pytest

from medgraph.graphs import TailedDirectedGraph, UnrolledDag
from medgraph.scm import random_separated_scm, scm_to_dict
from medgraph.transform import unroll


@pytest.fixture
def graph_plain():
    """Baseline P feeding S; cycle among the processes Q -> R -> S -> Q."""
    return TailedDirectedGraph.build(
        "PQRS", baseline={"P"},
        directed={("P", "S"), ("Q", "R"), ("S", "Q"), ("R", "S")})


@pytest.fixture
def graph_tailed():
    """Same skeleton with Q -> R and S -> Q allowed contemporaneously."""
    return TailedDirectedGraph.build(
        "PQRS", baseline={"P"},
        directed={("P", "S"), ("R", "S")},
        tailed={("Q", "R"), ("S", "Q")})


@pytest.fixture
def dag_plain(graph_plain):
    return unroll(graph_plain, 2)


@pytest.fixture
def dag_tailed(graph_tailed):
    return unroll(graph_tailed, 2)


@pytest.fixture
def dag_sparse(dag_plain):
    """The plain unrolling with two short-lag edges removed; still rolls
    back to the same rolled graph via the longer-lag copies."""
    dropped = {(("Q", 0), ("R", 1)), (("S", 0), ("Q", 1))}
    return UnrolledDag.build(2, dag_plain.process_names,
                             dag_plain.baseline_names,
                             dag_plain.edges - dropped)


def mediation_graph_basic():
    """Two baseline treatment components, one mediator, one covariate, one
    outcome; outcome feeds back contemporaneously."""
    return TailedDirectedGraph.build(
        ["AD", "AM", "M", "C", "N"], baseline={"AD", "AM"},
        directed={("AD", "N"), ("AM", "M"), ("C", "M"), ("C", "N"), ("M", "N")},
        tailed={("N", "M"), ("N", "C")})


def mediation_graph_latent(extra_edges=()):
    """Adds latent processes: one feeding the mediator, one feeding the
    covariate and the outcome."""
    directed = {("AD", "N"), ("AM", "M"), ("C", "M"), ("C", "N"), ("M", "N"),
                ("UM", "M"), ("UC", "C"), ("UC", "N")} | set(extra_edges)
    return TailedDirectedGraph.build(
        ["AD", "AM", "M", "C", "N", "UM", "UC"], baseline={"AD", "AM"},
        directed=directed, tailed={("N", "M"), ("N", "C")})


def mediation_graph_treated_covariate(extra_edges=()):
    """Variant where the direct treatment component also feeds the
    covariate process."""
    directed = {("AD", "C"), ("AD", "N"), ("AM", "M"), ("C", "M"), ("C", "N"),
                ("M", "N"), ("UM", "M"), ("UC", "C")} | set(extra_edges)
    return TailedDirectedGraph.build(
        ["AD", "AM", "M", "C", "N", "UM", "UC"], baseline={"AD", "AM"},
        directed=directed, tailed={("N", "M")})


def scm_dict_a1_broken_at_point_1():
    """``random_separated_scm(2, 0)`` as a model file, with AD added as a
    parent of M1 whose 0/1 probabilities swap when AD = 1: A1 fails at
    grid point 1 only."""
    d = scm_to_dict(random_separated_scm(2, 0))
    d["parents"]["M1"].append("AD")
    cpt = np.asarray(d["cpt"]["M1"])
    d["cpt"]["M1"] = np.stack([cpt, cpt[..., [1, 0, 2]]], axis=-2).tolist()
    return d
