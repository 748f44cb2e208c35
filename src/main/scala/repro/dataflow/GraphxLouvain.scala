package repro.dataflow

import org.apache.spark.graphx.{Edge, Graph, TripletFields, VertexId}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{Compress, Objective}
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** GX-CC: the LambdaCC Louvain scheme as GraphX vertex programs (the repro
  * band's "GraphX vertex programs iterating over edges for cluster merges").
  *
  * Per level, synchronous best-move rounds run as `aggregateMessages` passes:
  * every edge sends its endpoint's current cluster id and weight both ways,
  * each vertex aggregates edge weight per neighboring cluster, scores
  * candidate moves with the appendix-A delta against broadcast cluster
  * weights K_c, and a pseudo-random half of improvable vertices moves
  * (symmetry breaking). A level ends by collecting its assignment, densifying
  * it with `Objective.normalize` and contracting the graph through a
  * broadcast of it, with `reduceByKey` over cluster-id pairs and over vertex
  * weights; `Compress.flatten` composes the levels at the end.
  *
  * K_c and each level's assignment are broadcast (at most one entry per
  * vertex; fine at container scale — a billion-edge deployment would join
  * against RDDs instead).
  */
object GraphxLouvain {

  final case class Result(clusters: Array[Int], levels: Int, rounds: Int)

  /** Cluster `lg` under the CC objective at resolution `lambda`. */
  def cluster(spark: SparkSession, lg: LocalGraph, lambda: Double,
              numIter: Int = 8, maxLevels: Int = 6, seed: Long = 42): Result = {
    require(maxLevels >= 1, s"maxLevels must be at least 1, got $maxLevels")
    val sc = spark.sparkContext
    var vertices = sc.parallelize(
      (0 until lg.numVertices).map(v => (v.toLong: VertexId, lg.vertexWeight(v))))
    var edges = sc.parallelize(lg.undirectedEdges.map { case (u, v, w) =>
      Edge(u.toLong, v.toLong, w)
    })
    // per level, the dense assignment of its vertices onto the next level's
    val levels = ArrayBuffer.empty[Array[Int]]
    var nL = lg.numVertices
    var rounds = 0
    var done = false
    while (!done && levels.length < maxLevels) {
      val (assign, r, moved) = levelRounds(spark, vertices, edges, lambda, numIter,
        seed + levels.length * 7919, nL)
      rounds += r
      val cids = new Array[Int](nL)
      assign.collect().foreach { case (v, c) => cids(v.toInt) = c.toInt }
      val dense = Objective.normalize(cids)
      val nC    = if (dense.isEmpty) 0 else dense.max + 1
      levels += dense
      if (!moved || nC == nL) done = true
      else {
        // contract through the broadcast assignment; cluster ids become the
        // next level's vertex ids
        val denseB = sc.broadcast(dense)
        edges = edges.map { e =>
          val a = denseB.value(e.srcId.toInt); val b = denseB.value(e.dstId.toInt)
          ((math.min(a, b), math.max(a, b)), e.attr)
        }.filter { case ((a, b), _) => a != b }
          .reduceByKey(_ + _)
          .map { case ((a, b), w) => Edge(a.toLong, b.toLong, w) }
          .persist(StorageLevel.MEMORY_AND_DISK)
        vertices = vertices.map { case (v, k) => (denseB.value(v.toInt).toLong: VertexId, k) }
          .reduceByKey(_ + _)
          .persist(StorageLevel.MEMORY_AND_DISK)
        nL = nC
      }
    }
    Result(levels.reduceRight(Compress.flatten(_, _)), levels.length, rounds)
  }

  /** Synchronous best-move rounds on one level of `nL` vertices. Returns
    * (levelVertex → cid, rounds, anyMoved); cluster ids start as vertex ids,
    * and v detaches to the fresh id nL + v (the shared-memory spare).
    */
  private def levelRounds(spark: SparkSession,
                          vertices: org.apache.spark.rdd.RDD[(VertexId, Double)],
                          edges: org.apache.spark.rdd.RDD[Edge[Double]],
                          lambda: Double, numIter: Int, seed: Long, nL: Int)
      : (org.apache.spark.rdd.RDD[(VertexId, VertexId)], Int, Boolean) = {
    val sc = spark.sparkContext
    // VD = (cid, k); initial cluster = own vertex id
    var g = Graph(vertices.map { case (v, k) => (v, (v, k)) }, edges).cache()
    var anyMoved = false
    var round = 0
    var stop = false
    while (round < numIter && !stop) {
      // broadcast cluster weights K_c
      val kc = g.vertices.map { case (_, (cid, k)) => (cid, k) }
        .reduceByKey(_ + _).collectAsMap()
      val kcB = sc.broadcast(scala.collection.Map(kc.toSeq: _*))
      // per-vertex edge weight into each neighboring cluster
      val msgs = g.aggregateMessages[Map[Long, Double]](
        ctx => {
          ctx.sendToDst(Map(ctx.srcAttr._1 -> ctx.attr))
          ctx.sendToSrc(Map(ctx.dstAttr._1 -> ctx.attr))
        },
        (a, b) => (a.keySet ++ b.keySet).iterator
          .map(c => c -> (a.getOrElse(c, 0.0) + b.getOrElse(c, 0.0))).toMap,
        TripletFields.All)
      val curSeed = seed + round
      // desired moves (pre symmetry-break), so an unlucky all-tails round
      // does not read as convergence
      val wanted = g.vertices.join(msgs).flatMap { case (v, ((cid, k), wTo)) =>
        val kcMap = kcB.value
        val wToC = wTo.getOrElse(cid, 0.0)
        val kCur = kcMap.getOrElse(cid, k)
        val removeGain = Objective.moveDelta(k, lambda, wToC, kCur, 0.0, 0.0)
        var bestDelta = 1e-11
        var bestT = cid
        wTo.foreach { case (c2, w2) =>
          if (c2 != cid) {
            val d = Objective.moveDelta(k, lambda, wToC, kCur, w2, kcMap.getOrElse(c2, 0.0))
            if (d > bestDelta) { bestDelta = d; bestT = c2 }
          }
        }
        if (removeGain > bestDelta && cid != nL + v) {
          bestDelta = removeGain; bestT = nL + v
        }
        if (bestT != cid) Some((v, bestT)) else None
      }.persist(StorageLevel.MEMORY_AND_DISK)
      val nWanted = wanted.count()
      val moves = wanted.filter { case (v, _) =>
        scala.util.hashing.byteswap64(v * 31 + curSeed) % 2 == 0
      }
      val nMoves = moves.count()
      if (nWanted == 0) stop = true
      else if (nMoves > 0) {
        anyMoved = true
        val g2 = g.outerJoinVertices(moves) {
          case (_, (cid, k), newC) => (newC.getOrElse(cid), k)
        }.cache()
        g2.vertices.count()
        // keep the shared edge RDD cached; only the old vertex view is dead
        g.unpersistVertices(blocking = false)
        g = g2
      } // else retry with the next round's coin flips
      wanted.unpersist(blocking = false)
      round += 1
    }
    (g.vertices.map { case (v, (cid, _)) => (v, cid) }, round, anyMoved)
  }
}
