package repro.core

import repro.graph.LocalGraph

/** The LambdaCC / correlation-clustering objective (paper §2) and the local
  * move delta (paper appendix A).
  *
  * Convention: we use the *unordered-pair* objective
  *
  *   CC(C) = Σ_{intra edges {u,v}} w_uv + Σ_v selfLoop_v[intra by def]
  *           − (λ/2) · Σ_c (K_c² − Σ_{v∈c} sq_v)
  *
  * which is exactly half the paper's ordered V×V sum (same argmax; reported
  * numbers differ by the constant factor 2 from the paper's plots, which is
  * irrelevant for the reproduced *ratios*). `sq_v` is the sum of squared
  * original vertex weights inside super-vertex v, so the value is exact at
  * every coarsening level.
  *
  * Modularity: with k_v = d_v and λ = γ/(2W) (W = total edge weight),
  * Q = CC(C)/W reproduces Reichardt–Bornholdt modularity (γ=1 ⇒ Newman).
  */
object Objective {

  /** CC objective of `clusters` over `g` (cluster ids arbitrary non-negative). */
  def cc(g: LocalGraph, clusters: Array[Int], lambda: Double): Double = {
    val n = g.numVertices
    require(clusters.length == n)
    var intra = 0.0
    var v     = 0
    while (v < n) {
      intra += g.selfLoop(v)
      var i = g.offsets(v)
      while (i < g.offsets(v + 1)) {
        val u = g.nbrs(i)
        if (v < u && clusters(u) == clusters(v)) intra += g.wgts(i)
        i += 1
      }
      v += 1
    }
    var maxC = 0
    v = 0
    while (v < n) { if (clusters(v) > maxC) maxC = clusters(v); v += 1 }
    val kSum = new Array[Double](maxC + 1)
    var sq   = 0.0
    v = 0
    while (v < n) { kSum(clusters(v)) += g.vertexWeight(v); sq += g.sqWeight(v); v += 1 }
    var kSq = 0.0
    var c   = 0
    while (c <= maxC) { kSq += kSum(c) * kSum(c); c += 1 }
    intra - lambda / 2 * (kSq - sq)
  }

  /** Modularity (Reichardt–Bornholdt with resolution γ) of a clustering.
    * Expects `g` with its ORIGINAL weights; applies k=deg, λ=γ/2W internally.
    */
  def modularity(g: LocalGraph, clusters: Array[Int], gamma: Double): Double = {
    val w      = g.totalEdgeWeight
    val gMod   = g.withDegreeWeights
    val lambda = gamma / (2 * w)
    cc(gMod, clusters, lambda) / w
  }

  /** Appendix-A move delta: change in CC from moving v from cluster c (which
    * contains v, total weight `kC`) to cluster c2 (total weight `kC2`,
    * excluding v). `wToC`/`wToC2` are v's edge weights into each cluster.
    * Every engine scores moves with it; detaching v is `wToC2 = kC2 = 0`.
    */
  @inline def moveDelta(kV: Double, lambda: Double,
                        wToC: Double, kC: Double,
                        wToC2: Double, kC2: Double): Double =
    -(wToC - lambda * kV * (kC - kV)) + wToC2 - lambda * kV * kC2

  /** Renumber non-negative cluster ids to dense [0, #clusters), in order of
    * first appearance. Relabels through an array of size max id + 1.
    */
  def normalize(clusters: Array[Int]): Array[Int] = {
    var max = -1
    clusters.foreach { c => require(c >= 0, s"negative cluster id $c"); max = math.max(max, c) }
    val id   = new Array[Int](max + 1); java.util.Arrays.fill(id, -1)
    val out  = new Array[Int](clusters.length)
    var next = 0
    var i = 0
    while (i < clusters.length) {
      val c = clusters(i)
      if (id(c) < 0) { id(c) = next; next += 1 }
      out(i) = id(c)
      i += 1
    }
    out
  }
}
