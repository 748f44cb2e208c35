package repro.dataflow

import org.apache.spark.SparkContext
import org.apache.spark.graphx.{Edge, EdgeDirection, Graph}
import org.apache.spark.sql.SparkSession
import repro.core.{Compress, Objective, ParLouvain}
import repro.graph.LocalGraph
import repro.util.{AtomicDoubleArray, IntDoubleMap}
import scala.collection.mutable.ArrayBuffer

/** GX-CC: the LambdaCC Louvain scheme as GraphX vertex programs (the repro
  * band's "GraphX vertex programs iterating over edges for cluster merges").
  *
  * The edges live in an RDD; every vertex-sized array lives on the driver:
  * each level's cluster ids, vertex weights k_v and cluster weights K_c.
  * Per level, each vertex's row (neighbours and weights, in `LocalGraph`'s
  * row order) is built once with `collectEdges` and cached. Synchronous
  * best-move rounds then run as one Spark job each: the ids and K_c are
  * broadcast, each partition sums every row's weights per neighbouring
  * cluster into one dense `IntDoubleMap` and picks the target with the
  * shared-memory move rule `ParLouvain.choose`, and the wanted moves are
  * collected. The driver applies a pseudo-random half of them (symmetry
  * breaking). A level ends by densifying its ids with `Objective.normalize`
  * and contracting the edges through a broadcast of them with `reduceByKey`
  * over cluster-id pairs; the driver sums k per cluster. `Compress.flatten`
  * composes the levels at the end.
  *
  * The driver arrays hold O(n) entries; fine at container scale — a
  * billion-edge deployment would keep vertex state in RDDs instead.
  */
object GraphxLouvain {

  final case class Result(clusters: Array[Int], levels: Int, rounds: Int)

  /** Cluster `lg` under the CC objective at resolution `lambda`. */
  def cluster(spark: SparkSession, lg: LocalGraph, lambda: Double,
              numIter: Int = 8, maxLevels: Int = 6, seed: Long = 42): Result = {
    require(maxLevels >= 1, s"maxLevels must be at least 1, got $maxLevels")
    val sc = spark.sparkContext
    var edges = sc.parallelize(lg.undirectedEdges.map { case (u, v, w) =>
      Edge(u.toLong, v.toLong, w)
    })
    var k = lg.vertexWeight // k_v of this level's vertices
    // per level, the dense assignment of its vertices onto the next level's
    val levels = ArrayBuffer.empty[Array[Int]]
    var rounds = 0
    var done = false
    while (!done && levels.length < maxLevels) {
      val g = Graph.fromEdges(edges, 0).cache()
      val (ids, r, moved) = levelRounds(sc, g, k, lambda, numIter, seed + levels.length * 7919)
      rounds += r
      val dense = Objective.normalize(ids)
      val nC    = if (dense.isEmpty) 0 else dense.max + 1
      levels += dense
      if (!moved || nC == k.length) done = true
      else {
        // contract through the broadcast assignment; cluster ids become the
        // next level's vertex ids
        val denseB = sc.broadcast(dense)
        edges = g.edges.map { e =>
          val a = denseB.value(e.srcId.toInt); val b = denseB.value(e.dstId.toInt)
          ((math.min(a, b), math.max(a, b)), e.attr)
        }.filter { case ((a, b), _) => a != b }
          .reduceByKey(_ + _)
          .map { case ((a, b), w) => Edge(a.toLong, b.toLong, w) }
        val kC = new Array[Double](nC)
        for (v <- k.indices) kC(dense(v)) += k(v)
        k = kC
      }
    }
    Result(levels.reduceRight(Compress.flatten(_, _)), levels.length, rounds)
  }

  /** Synchronous best-move rounds on the level graph `g`, whose vertices have
    * weights `k`. Returns (cluster id of each vertex, rounds, anyMoved);
    * cluster ids start as vertex ids, and v detaches to the fresh id nL + v
    * (the shared-memory spare). A vertex without edges never moves.
    */
  private def levelRounds(sc: SparkContext, g: Graph[Int, Double], k: Array[Double],
                          lambda: Double, numIter: Int, seed: Long): (Array[Int], Int, Boolean) = {
    val nL = k.length
    val ids = Array.range(0, nL)
    val kB = sc.broadcast(k)
    // each vertex's row, in LocalGraph's order: higher neighbours ascending,
    // then lower ones ascending; built by the first round's job
    val rows = g.collectEdges(EdgeDirection.Either).map { case (vId, es) =>
      val v = vId.toInt
      val (nbrs, wgts) = es.map(e => ((if (e.srcId == vId) e.dstId else e.srcId).toInt, e.attr))
        .sortBy { case (u, _) => (u < v, u) }.unzip
      (v, nbrs, wgts)
    }.cache()
    var anyMoved = false
    var round = 0
    var stop = false
    while (round < numIter && !stop) {
      val kc = new AtomicDoubleArray(2 * nL)
      for (v <- 0 until nL) kc.add(ids(v), k(v))
      val idsB = sc.broadcast(ids); val kcB = sc.broadcast(kc)
      // desired moves (pre symmetry-break), so an unlucky all-tails round
      // does not read as convergence
      val wanted = rows.mapPartitions { it =>
        val ids = idsB.value; val kc = kcB.value; val k = kB.value
        val map = new IntDoubleMap(2 * nL)
        it.flatMap { case (v, nbrs, wgts) =>
          map.clear()
          var i = 0
          while (i < nbrs.length) { map.addTo(ids(nbrs(i)), wgts(i)); i += 1 }
          val c = ids(v)
          val t = ParLouvain.choose(map, c, k(v), lambda, kc, nL + v)
          if (t != c) Iterator.single((v, t)) else Iterator.empty
        }
      }.collect()
      val curSeed = seed + round
      if (wanted.isEmpty) stop = true
      else for ((v, t) <- wanted if scala.util.hashing.byteswap64(v.toLong * 31 + curSeed) % 2 == 0) {
        ids(v) = t; anyMoved = true
      } // no heads: retry with the next round's coin flips
      round += 1
    }
    rows.unpersist(blocking = false)
    (ids, round, anyMoved)
  }
}
