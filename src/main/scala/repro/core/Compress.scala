package repro.core

import repro.graph.LocalGraph
import repro.util.{IntDoubleMap, Parallel}

/** Graph compression (PARALLEL-COMPRESS / SEQUENTIAL-COMPRESS) and cluster
  * flattening (paper §3.1 and appendix B).
  *
  * Compression contracts each cluster into one super-vertex: inter-cluster
  * edges are aggregated by (cluster(u), cluster(v)); intra-cluster weight and
  * pre-existing self-loops accumulate into the super-vertex's `selfLoop`;
  * vertex weights (and the Σk² bookkeeping) are summed. This preserves the CC
  * objective exactly: for any clustering C' of the compressed graph,
  * CC(flatten(C, C')) on G equals CC(C') on G'.
  */
object Compress {

  /** Compress `g` by `clusters`, which must be dense ids in [0, numClusters).
    *
    * Cluster-major kernel (GBBS-style contraction): vertices are counting-sorted
    * by cluster. One parallel pass walks each cluster's adjacency once, sums
    * its totals and internal weight, and aggregates its weight to each higher
    * cluster in its worker's dense map, whose entries go to the slots from
    * `at(c)`, the prefix sum of its members' degrees (which bound them). The
    * pass runs over blocks of clusters of about equal degree sum, split on
    * `at`; [[LocalGraph.fromUpper]] lays out the rows over blocks of its own.
    * Each pair is summed once, so the output is identical at every thread
    * count.
    *
    * @param threads degree of parallelism only; 1 is the sequential variant.
    */
  def compress(g: LocalGraph, clusters: Array[Int], numClusters: Int,
               threads: Int = 1): LocalGraph = {
    require(clusters.length == g.numVertices)

    // Members of cluster c are members(start(c) until start(c + 1)), ascending;
    // its entries go to up(at(c) until end(c)).
    val start = new Array[Int](numClusters + 1)
    val at    = new Array[Int](numClusters + 1)
    for (v <- clusters.indices) { start(clusters(v) + 1) += 1; at(clusters(v) + 1) += g.degree(v) }
    for (c <- 0 until numClusters) { start(c + 1) += start(c); at(c + 1) += at(c) }
    val members = new Array[Int](clusters.length)
    val pos     = java.util.Arrays.copyOf(start, numClusters)
    for (v <- clusters.indices) { val c = clusters(v); members(pos(c)) = v; pos(c) += 1 }

    val kOut  = new Array[Double](numClusters)
    val sqOut = new Array[Double](numClusters)
    val slOut = new Array[Double](numClusters)
    val end   = new Array[Int](numClusters)
    val up    = new Array[Int](at(numClusters)); val upW = new Array[Double](at(numClusters))
    val maps  = Array.fill(math.max(1, threads))(new IntDoubleMap(numClusters))
    val gOffs = g.offsets; val gNbrs = g.nbrs; val gWgts = g.wgts
    val cuts  = Parallel.blocks(at, numClusters, threads)
    Parallel.forBlocks(cuts, threads) { (w, blk) =>
      val map = maps(w)
      var c = cuts(blk)
      while (c < cuts(blk + 1)) {
        map.clear()
        var i = start(c)
        while (i < start(c + 1)) {
          val x = members(i)
          kOut(c) += g.vertexWeight(x); sqOut(c) += g.sqWeight(x); slOut(c) += g.selfLoop(x)
          var j = gOffs(x); val xEnd = gOffs(x + 1)
          while (j < xEnd) {
            val u = gNbrs(j); val b = clusters(u)
            if (b > c) map.addTo(b, gWgts(j))
            else if (b == c && x < u) slOut(c) += gWgts(j) // each internal edge once
            j += 1
          }
          i += 1
        }
        val p = at(c); var e = 0
        while (e < map.size) { up(p + e) = map.keyAt(e); upW(p + e) = map.valueAt(e); e += 1 }
        end(c) = p + map.size
        c += 1
      }
    }
    LocalGraph.fromUpper(numClusters, at, end, up, upW, kOut, slOut, sqOut, threads)
  }

  /** PARALLEL-FLATTEN: compose clustering `dense` of level-l vertices with the
    * clustering `comp` of the compressed graph's vertices.
    */
  def flatten(dense: Array[Int], comp: Array[Int], threads: Int = 1): Array[Int] = {
    val out = new Array[Int](dense.length)
    Parallel.forRange(dense.length, threads)(v => out(v) = comp(dense(v)))
    out
  }
}
