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

  /** Fails unless `g` is a well-formed level graph: offsets ascend from 0;
    * every neighbour is in range and not the row's own vertex; each row holds
    * a neighbour at most once; every u→v entry has a v→u entry with the same
    * weight bits; weights and self-loops are finite; and every k_v is finite
    * and non-negative.
    */
  def assertWellFormed(g: LocalGraph): Unit = {
    import org.scalatest.Assertions.assert
    val n = g.numVertices; val m = g.nbrs.length
    assert(g.offsets(0) == 0 && g.wgts.length == m, "offsets must start at 0; nbrs and wgts must match")
    assert(Seq(g.vertexWeight, g.selfLoop, g.sqWeight).forall(_.length == n), "vertex arrays must have n entries")
    // The entries that point at v, in ascending source order: a counting sort by neighbour.
    val inAt = new Array[Int](n + 1)
    for (u <- 0 until n) {
      assert(g.offsets(u) <= g.offsets(u + 1), s"offsets descend at $u")
      assert(java.lang.Double.isFinite(g.selfLoop(u)), s"selfLoop($u) = ${g.selfLoop(u)}")
      assert(java.lang.Double.isFinite(g.vertexWeight(u)) && g.vertexWeight(u) >= 0, s"k($u) = ${g.vertexWeight(u)}")
      for (i <- g.offsets(u) until g.offsets(u + 1)) {
        val v = g.nbrs(i)
        assert(v >= 0 && v < n && v != u, s"row $u holds neighbour $v")
        assert(java.lang.Double.isFinite(g.wgts(i)), s"edge ($u,$v) has weight ${g.wgts(i)}")
        inAt(v + 1) += 1
      }
    }
    for (v <- 0 until n) inAt(v + 1) += inAt(v)
    val inSrc = new Array[Int](m); val inBits = new Array[Long](m); val next = inAt.clone()
    for (u <- 0 until n; i <- g.offsets(u) until g.offsets(u + 1)) {
      val v = g.nbrs(i)
      inSrc(next(v)) = u; inBits(next(v)) = java.lang.Double.doubleToRawLongBits(g.wgts(i)); next(v) += 1
    }
    for (v <- 0 until n) {
      val row = (g.offsets(v) until g.offsets(v + 1))
        .map(i => (g.nbrs(i), java.lang.Double.doubleToRawLongBits(g.wgts(i)))).sortBy(_._1)
      assert(row.map(_._1).distinct.length == row.length, s"row $v repeats a neighbour")
      assert(row == (inAt(v) until inAt(v + 1)).map(j => (inSrc(j), inBits(j))),
             s"row $v is not mirrored by its neighbours' entries with equal weight bits")
    }
  }

  /** Star graph with `leaves` leaves, each leaf tied to center 0 by `w`. */
  def star(leaves: Int, w: Double = 1.0): LocalGraph =
    LocalGraph.fromEdges(leaves + 1, (1 to leaves).map(l => (0, l, w)))
}
