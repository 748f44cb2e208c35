package repro.dataflow

import org.apache.spark.graphx.{Edge, Graph, TripletFields, VertexId}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.Objective
import repro.graph.LocalGraph

/** GX-CC: the LambdaCC Louvain scheme as GraphX vertex programs (the repro
  * band's "GraphX vertex programs iterating over edges for cluster merges").
  *
  * Per level, synchronous best-move rounds run as `aggregateMessages` passes:
  * every edge sends its endpoint's current cluster id and weight both ways,
  * each vertex aggregates edge weight per neighboring cluster, scores
  * candidate moves with the appendix-A delta against broadcast cluster
  * weights K_c, and a pseudo-random half of improvable vertices moves
  * (symmetry breaking). Levels end by contracting the graph with
  * `reduceByKey` over cluster-id pairs and recursing; the assignment is
  * flattened back through joins.
  *
  * K_c is broadcast as a map (clusters ≤ vertices; fine at container scale —
  * a billion-edge deployment would join against an RDD instead).
  */
object GraphxLouvain {

  /** Detach-to-fresh-singleton id offset (mirrors the shared-memory spare). */
  private val DetachOffset = 1L << 40

  final case class Result(clusters: Array[Int], levels: Int, rounds: Int)

  /** Cluster `lg` under the CC objective at resolution `lambda`. */
  def cluster(spark: SparkSession, lg: LocalGraph, lambda: Double,
              numIter: Int = 8, maxLevels: Int = 6, seed: Long = 42): Result = {
    val sc = spark.sparkContext
    val n  = lg.numVertices
    var vertices = sc.parallelize(
      (0 until n).map(v => (v.toLong: VertexId, lg.vertexWeight(v))))
    var edges = sc.parallelize(lg.undirectedEdges.map { case (u, v, w) =>
      Edge(u.toLong, v.toLong, w)
    })
    // assignment of ORIGINAL vertices onto the current level's vertex ids
    var flat = sc.parallelize((0 until n).map(v => (v.toLong, v.toLong)))
    var level = 0
    var rounds = 0
    var done = false
    while (!done && level < maxLevels) {
      val (assign, r, moved) = levelRounds(spark, vertices, edges, lambda, numIter,
        seed + level * 7919)
      rounds += r
      level += 1
      if (!moved) done = true
      else {
        // densify level cluster ids so they become next-level vertex ids
        val ids = assign.values.distinct().zipWithIndex()
          .mapValues(_.toLong).persist(StorageLevel.MEMORY_AND_DISK)
        val denseAssign = assign.map { case (v, c) => (c, v) }.join(ids)
          .map { case (_, (v, newC)) => (v, newC) }
          .persist(StorageLevel.MEMORY_AND_DISK)
        denseAssign.count() // materialize before unpersisting upstream
        val nC = ids.count()
        val nV = vertices.count()
        flat = flat.map { case (orig, mid) => (mid, orig) }
          .join(denseAssign)
          .map { case (_, (orig, c)) => (orig, c) }
          .persist(StorageLevel.MEMORY_AND_DISK)
        flat.count()
        if (nC == nV) done = true
        else {
          val assignMap = denseAssign
          val newEdges = edges.map(e => (e.srcId, (e.dstId, e.attr)))
            .join(assignMap)
            .map { case (_, ((dst, w), cs)) => (dst, (cs, w)) }
            .join(assignMap)
            .map { case (_, ((cs, w), cd)) => ((math.min(cs, cd), math.max(cs, cd)), w) }
            .filter { case ((a, b), _) => a != b }
            .reduceByKey(_ + _)
            .map { case ((a, b), w) => Edge(a, b, w) }
            .persist(StorageLevel.MEMORY_AND_DISK)
          val newVertices = vertices.join(assignMap)
            .map { case (_, (k, c)) => (c, k) }
            .reduceByKey(_ + _)
            .persist(StorageLevel.MEMORY_AND_DISK)
          newEdges.count(); newVertices.count()
          edges = newEdges
          vertices = newVertices
        }
      }
    }
    val out = new Array[Int](n)
    flat.collect().foreach { case (orig, c) => out(orig.toInt) = c.toInt }
    Result(out, level, rounds)
  }

  /** Synchronous best-move rounds on one level. Returns (levelVertex → cid,
    * rounds, anyMoved); cluster ids start as vertex ids.
    */
  private def levelRounds(spark: SparkSession,
                          vertices: org.apache.spark.rdd.RDD[(VertexId, Double)],
                          edges: org.apache.spark.rdd.RDD[Edge[Double]],
                          lambda: Double, numIter: Int, seed: Long)
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
        if (removeGain > bestDelta && cid != v + DetachOffset) {
          bestDelta = removeGain; bestT = v + DetachOffset
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
