package repro.graph

import scala.collection.mutable.ArrayBuilder

/** Immutable CSR representation of an undirected weighted graph, possibly a
  * *compressed* (coarsened) graph in which each vertex stands for a cluster of
  * original vertices.
  *
  * Every undirected edge {u,v}, u≠v, appears twice in the adjacency
  * (u→v and v→u) with bitwise-equal weights. Self-loops are NOT stored as
  * adjacency entries; intra-super-vertex weight accumulated by coarsening
  * lives in `selfLoop` so the exact CC objective is computable at any level.
  * There is one CSR builder: the builders below and compression both run
  * `Compress.compress`'s cluster-major kernel.
  *
  * @param vertexWeight  k_v of the LambdaCC objective (1 for CC, degree for
  *                      modularity, sum of constituents after coarsening)
  * @param selfLoop      total original edge weight contracted inside v
  * @param sqWeight      Σ of original k² contained in v (exact negative term)
  */
final class LocalGraph(
    val numVertices: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wgts: Array[Double],
    val vertexWeight: Array[Double],
    val selfLoop: Array[Double],
    val sqWeight: Array[Double],
) {
  require(offsets.length == numVertices + 1, "offsets must have n+1 entries")
  require(nbrs.length == offsets(numVertices), "nbrs length must equal offsets(n)")

  /** Number of undirected edges. */
  def numEdges: Long = nbrs.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Σ of incident edge weights (no self-loop contribution). */
  def weightedDegree(v: Int): Double = {
    var s = 0.0; var i = offsets(v)
    while (i < offsets(v + 1)) { s += wgts(i); i += 1 }
    s
  }

  /** Total undirected edge weight, self-loops included. */
  def totalEdgeWeight: Double = {
    var s = 0.0; var i = 0
    while (i < wgts.length) { s += wgts(i); i += 1 }
    var v = 0; var sl = 0.0
    while (v < numVertices) { sl += selfLoop(v); v += 1 }
    s / 2 + sl
  }

  def maxDegree: Int = {
    var m = 0; var v = 0
    while (v < numVertices) { m = math.max(m, degree(v)); v += 1 }
    m
  }

  /** Copy with different vertex weights (k² tracked accordingly).
    * Used to switch the same topology between CC (k=1) and modularity (k=deg).
    */
  def withVertexWeights(k: Array[Double]): LocalGraph = {
    require(k.length == numVertices)
    val sq = new Array[Double](numVertices)
    var v = 0
    while (v < numVertices) { sq(v) = k(v) * k(v); v += 1 }
    new LocalGraph(numVertices, offsets, nbrs, wgts, k, selfLoop, sq)
  }

  /** Modularity-style weights: k_v = weighted degree + 2·selfLoop. */
  def withDegreeWeights: LocalGraph = {
    val k = new Array[Double](numVertices)
    var v = 0
    while (v < numVertices) { k(v) = weightedDegree(v) + 2 * selfLoop(v); v += 1 }
    withVertexWeights(k)
  }

  /** Estimated retained bytes of the CSR arrays (paper's Fig-8 denominator is
    * CSR bytes; we account both sides of the comparison the same way).
    */
  def sizeInBytes: Long =
    4L * offsets.length + 4L * nbrs.length + 8L * wgts.length +
      8L * vertexWeight.length + 8L * selfLoop.length + 8L * sqWeight.length

  /** Undirected edge list (u < v), for Spark interop and tests. */
  def undirectedEdges: Seq[(Int, Int, Double)] = {
    val buf = Seq.newBuilder[(Int, Int, Double)]
    var u = 0
    while (u < numVertices) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = nbrs(i)
        if (u < v) buf += ((u, v, wgts(i)))
        i += 1
      }
      u += 1
    }
    buf.result()
  }
}

object LocalGraph {

  /** Build from an undirected edge list; duplicate {u,v} pairs are combined by
    * summing weights; self-loops in the input are accumulated into `selfLoop`.
    * Vertex weights default to 1 (the CC objective's default k).
    */
  def fromEdges(numVertices: Int, edges: IterableOnce[(Int, Int, Double)]): LocalGraph = {
    val src = new ArrayBuilder.ofInt; val dst = new ArrayBuilder.ofInt; val wgt = new ArrayBuilder.ofDouble
    val it   = edges.iterator
    val size = it.knownSize
    if (size > 0) { src.sizeHint(size); dst.sizeHint(size); wgt.sizeHint(size) }
    it.foreach { case (u, v, w) => src.addOne(u); dst.addOne(v); wgt.addOne(w) }
    fromEdgeArrays(numVertices, src.result(), dst.result(), wgt.result())
  }

  /** Primitive form of [[fromEdges]]: edge e is {src(e), dst(e)} with weight
    * wgt(e). The edges are counting-sorted into a raw CSR that may hold
    * duplicates, which [[repro.core.Compress.compress]] under the identity
    * clustering then merges — the one CSR builder of the code base.
    */
  def fromEdgeArrays(numVertices: Int, src: Array[Int], dst: Array[Int],
                     wgt: Array[Double]): LocalGraph = {
    val n = numVertices
    val m = src.length
    require(m == dst.length && dst.length == wgt.length, "edge arrays differ in length")
    val selfLoop = new Array[Double](n)
    val offsets  = new Array[Int](n + 1)
    var e = 0
    while (e < m) {
      val u = src(e); val v = dst(e)
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw new IllegalArgumentException(s"requirement failed: edge ($u,$v) out of range")
      if (u == v) selfLoop(u) += wgt(e) else { offsets(u + 1) += 1; offsets(v + 1) += 1 }
      e += 1
    }
    var x = 0
    while (x < n) { offsets(x + 1) += offsets(x); x += 1 }
    val pos  = java.util.Arrays.copyOf(offsets, n)
    val nbrs = new Array[Int](offsets(n))
    val wgts = new Array[Double](offsets(n))
    e = 0
    while (e < m) {
      val u = src(e); val v = dst(e)
      if (u != v) {
        nbrs(pos(u)) = v; wgts(pos(u)) = wgt(e); pos(u) += 1
        nbrs(pos(v)) = u; wgts(pos(v)) = wgt(e); pos(v) += 1
      }
      e += 1
    }
    val ones = new Array[Double](n)
    java.util.Arrays.fill(ones, 1.0)
    val raw  = new LocalGraph(n, offsets, nbrs, wgts, ones, selfLoop, ones)
    repro.core.Compress.compress(raw, Array.range(0, n), n)
  }

  /** Build from unweighted undirected pairs. */
  def fromUnweightedEdges(numVertices: Int, edges: IterableOnce[(Int, Int)]): LocalGraph =
    fromEdges(numVertices, edges.iterator.map { case (u, v) => (u, v, 1.0) })
}
