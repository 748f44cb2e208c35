package repro

import java.util.SplittableRandom
import repro.graph.LocalGraph

/** Shared random-graph fixtures for unit and property tests. */
object TestGraphs {

  /** Erdős–Rényi-ish weighted graph, weights in (0, 2]. */
  def randomWeighted(n: Int, p: Double, seed: Long): LocalGraph = {
    val rng   = new SplittableRandom(seed)
    val edges = for {
      u <- 0 until n
      v <- u + 1 until n
      if rng.nextDouble() < p
    } yield (u, v, rng.nextDouble() * 2 + 1e-6)
    LocalGraph.fromEdges(n, edges)
  }

  /** Unweighted random graph. */
  def randomUnweighted(n: Int, p: Double, seed: Long): LocalGraph = {
    val rng   = new SplittableRandom(seed)
    val edges = for {
      u <- 0 until n
      v <- u + 1 until n
      if rng.nextDouble() < p
    } yield (u, v)
    LocalGraph.fromUnweightedEdges(n, edges)
  }

  /** Random dense clustering with ids in [0, maxClusters). */
  def randomClustering(n: Int, maxClusters: Int, seed: Long): Array[Int] = {
    val rng = new SplittableRandom(seed)
    Array.fill(n)(rng.nextInt(maxClusters))
  }

  /** Two disjoint cliques of size `s`, joined by a single bridge edge. */
  def twoCliques(s: Int): LocalGraph = {
    val edges = (for { u <- 0 until s; v <- u + 1 until s } yield (u, v)) ++
      (for { u <- s until 2 * s; v <- u + 1 until 2 * s } yield (u, v)) ++
      Seq((0, s))
    LocalGraph.fromUnweightedEdges(2 * s, edges)
  }

  /** CC objective by brute force over all O(n²) vertex pairs: the oracle for
    * `Objective.cc`. Pairs inside a super-vertex are not counted, so it holds
    * only on uncoarsened graphs, where sq_v = k_v².
    */
  def bruteForceCC(g: LocalGraph, clusters: Array[Int], lambda: Double): Double = {
    val n   = g.numVertices
    val row = new Array[Double](n) // u's edge weights, filled and cleared per u
    var total = 0.0
    var u = 0
    while (u < n) {
      total += g.selfLoop(u) // intra by definition
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { row(g.nbrs(i)) = g.wgts(i); i += 1 }
      var w = u + 1
      while (w < n) {
        if (clusters(u) == clusters(w))
          total += row(w) - lambda * g.vertexWeight(u) * g.vertexWeight(w)
        w += 1
      }
      i = g.offsets(u)
      while (i < g.offsets(u + 1)) { row(g.nbrs(i)) = 0.0; i += 1 }
      u += 1
    }
    total
  }

  /** Star graph with `leaves` leaves, each leaf tied to center 0 by `w`. */
  def star(leaves: Int, w: Double = 1.0): LocalGraph =
    LocalGraph.fromEdges(leaves + 1, (1 to leaves).map(l => (0, l, w)))
}
