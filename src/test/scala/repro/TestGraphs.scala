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

  /** Star graph with `leaves` leaves, each leaf tied to center 0 by `w`. */
  def star(leaves: Int, w: Double = 1.0): LocalGraph =
    LocalGraph.fromEdges(leaves + 1, (1 to leaves).map(l => (0, l, w)))
}
