package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.dataflow.GraphxLouvain
import repro.graph.GraphGen

/** T16 — dataflow validation: the GraphX vertex-program Louvain (GX-CC)
  * against the shared-memory PAR-CC on the same graphs: objective parity and
  * running times. (Not a paper table; validates the distributed_dataflow port
  * the repro brief asks for.)
  */
object ExpDataflow {

  def table(spark: SparkSession,
            scales: Seq[Int] = Seq(10, 12),
            lambdas: Seq[Double] = Seq(0.1, 0.5)): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (scale <- scales; lambda <- lambdas) {
      val g = GraphGen.rmat(scale, (1 << scale) * 8L, seed = 5)
      val (gxRes, tGx) = Timing.time(
        GraphxLouvain.cluster(spark, g, lambda, numIter = 8, maxLevels = 6))
      val (parRes, tPar) = Timing.time(ParLouvain.cluster(g, lambda, LouvainOptions(seed = 3)))
      val oGx  = Objective.cc(g, gxRes.clusters, lambda)
      val oPar = Objective.cc(g, parRes.clusters, lambda)
      rows += Seq(s"rmat$scale", g.numEdges.toString, f"$lambda%.2f",
        Timing.fmt(tGx), Timing.fmt(tPar),
        f"$oGx%.4g", f"$oPar%.4g",
        f"${oGx / math.max(1e-12, oPar)}%.3f")
    }
    Table("T16: GraphX (GX-CC) Louvain vs shared-memory PAR-CC",
      Seq("graph", "m", "lambda", "gx_s", "par_s", "gx_obj", "par_obj", "gx/par_obj"),
      rows.result())
  }
}
