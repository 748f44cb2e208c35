package repro.experiments

import repro.baselines._
import repro.core._
import repro.eval.Metrics
import repro.graph.{GraphGen, LocalGraph, Triangles}

/** T10 — PAR-CC vs TECTONIC (Fig 10 + §4.2): precision/recall over θ and λ
  * sweeps plus speedups at matched-or-better quality (paper: 2.48–67.62x).
  */
object ExpTectonic {

  val thetas: Seq[Double] = Seq(0.01, 0.02, 0.04, 0.06, 0.1, 0.15, 0.25, 0.4, 0.8, 1.5)

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (gName <- BenchGraphs.qualitySet) {
      val gt = BenchGraphs(gName)
      val comms = gt.communities.map(identity)
      // Tectonic sweep (count triangles once; sweep θ like the original).
      // The paper's TECTONIC implementation is sequential — time it that way.
      val (tc, triSec) = Timing.time(Triangles.count(gt.graph, threads = 1))
      val tecPoints = thetas.map { th =>
        val (cl, sec) = Timing.time(Tectonic.clusterWithCounts(gt.graph, tc, th))
        val pr = Metrics.averagePrecisionRecall(comms, cl)
        (th, pr, triSec + sec)
      }
      val ccPoints = ExpQuality.ccLambdas.map { l =>
        val (res, sec) = Timing.time(ParLouvain.cluster(gt.graph, l, LouvainOptions(seed = 3)))
        val pr = Metrics.averagePrecisionRecall(comms, res.clusters)
        (l, pr, sec)
      }
      tecPoints.foreach { case (th, pr, sec) =>
        rows += Seq(gName, "TECTONIC", f"$th%.2f", f"${pr.precision}%.3f", f"${pr.recall}%.3f",
          f"${pr.f1}%.3f", Timing.fmt(sec))
      }
      ccPoints.foreach { case (l, pr, sec) =>
        rows += Seq(gName, "PAR-CC", f"$l%.2f", f"${pr.precision}%.3f", f"${pr.recall}%.3f",
          f"${pr.f1}%.3f", Timing.fmt(sec))
      }
      // matched-quality speedup: best PAR-CC point dominating best Tectonic F1
      val bestTec = tecPoints.maxBy(_._2.f1)
      val dominating = ccPoints.filter(_._2.f1 >= bestTec._2.f1)
      if (dominating.nonEmpty) {
        val fastest = dominating.minBy(_._3)
        rows += Seq(gName, "SPEEDUP@QUALITY", "-", "-", "-",
          f"${fastest._2.f1}%.3f vs ${bestTec._2.f1}%.3f",
          f"${bestTec._3 / fastest._3}%.2fx")
      }
    }
    Table("T10 (Fig 10): PAR-CC vs TECTONIC precision/recall and matched-quality speedup",
      Seq("graph", "alg", "param", "precision", "recall", "F1", "seconds"),
      rows.result())
  }
}

/** T11 — PAR-MOD vs the NetworKit-PLM stand-in (§C.1, Fig 17): speedups and
  * modularity ratios with both sides at num_iter = 32 (NetworKit's default).
  */
object ExpNetworkit {

  def table(): Table = {
    val rows = for (gName <- BenchGraphs.qualitySet; gamma <- Seq(0.25, 0.5, 1.0, 2.0)) yield {
      val g = BenchGraphs(gName).graph
      val opts = LouvainOptions(numIter = 32, refine = false, seed = 9)
      val (plm, tPlm) = Timing.time(PlmBaseline.clusterModularity(g, gamma, opts))
      val (our, tOur) = Timing.time(ParLouvain.clusterModularity(g, gamma, opts))
      val qPlm = Objective.modularity(g, plm.clusters, gamma)
      val qOur = Objective.modularity(g, our.clusters, gamma)
      Seq(gName, f"$gamma%.2f", Timing.fmt(tPlm), Timing.fmt(tOur),
        f"${tPlm / tOur}%.2f", f"${qOur / qPlm}%.3f")
    }
    Table("T11 (Fig 17): PAR-MOD vs NetworKit-PLM stand-in (sequential compression)",
      Seq("graph", "gamma", "plm_s", "parmod_s", "speedup", "modularity_ratio"),
      rows)
  }
}

/** T12 — C4 / ClusterWild! vs PAR-CC (§C.1): their speed advantage, their
  * objective collapse at λ=0.5 (often negative), and their poor
  * precision/recall vs PAR-CC's.
  */
object ExpPivot {

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    val lambda = 0.5 // the objective C4/CW optimize
    for (gName <- BenchGraphs.qualitySet) {
      val gt = BenchGraphs(gName)
      val g  = gt.graph
      val comms = gt.communities.map(identity)
      val (parRes, tPar) = Timing.time(ParLouvain.cluster(g, lambda, LouvainOptions(seed = 3)))
      val oPar  = Objective.cc(g, parRes.clusters, lambda)
      val prPar = Metrics.averagePrecisionRecall(comms, parRes.clusters)
      rows += Seq(gName, "PAR-CC", Timing.fmt(tPar), "1.00",
        f"$oPar%.4g", "0.0%", f"${prPar.precision}%.3f", f"${prPar.recall}%.3f")
      // The paper's PR comparison uses PAR-CC at its swept operating point
      // (recall 0.61–0.98 at precision > 0.5), not at the pivots' λ=0.5.
      val best = ExpQuality.ccLambdas.map { l =>
        val cl = ParLouvain.cluster(g, l, LouvainOptions(seed = 3)).clusters
        (l, Metrics.averagePrecisionRecall(comms, cl))
      }.maxBy(_._2.f1)
      rows += Seq(gName, f"PAR-CC(l=${best._1}%.2f)", "-", "-", "-", "-",
        f"${best._2.precision}%.3f", f"${best._2.recall}%.3f")
      for ((name, run) <- Seq[(String, () => Array[Int])](
          "C4" -> (() => KwikCluster.c4(g, 3)),
          "CLUSTERWILD" -> (() => KwikCluster.clusterWild(g, 3)))) {
        val (cl, t) = Timing.time(run())
        val o  = Objective.cc(g, cl, lambda)
        val pr = Metrics.averagePrecisionRecall(comms, cl)
        rows += Seq(gName, name, Timing.fmt(t), f"${tPar / t}%.2f",
          f"$o%.4g", f"${(oPar - o) / math.abs(oPar) * 100}%.1f%%",
          f"${pr.precision}%.3f", f"${pr.recall}%.3f")
      }
    }
    Table("T12 (C.1): pivot baselines vs PAR-CC at lambda=0.5",
      Seq("graph", "alg", "seconds", "speedup_vs_parcc", "cc_objective", "obj_drop_vs_parcc", "precision", "recall"),
      rows.result())
  }
}

/** T13 — SCD vs PAR-CC (§C.1): speedups at comparable-or-better quality;
  * SCD's collapse on weak-community graphs (paper's orkut row).
  */
object ExpScd {

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (gName <- BenchGraphs.qualitySet) {
      val gt = BenchGraphs(gName)
      val comms = gt.communities.map(identity)
      val (scdCl, tScd) = Timing.time(Scd.cluster(gt.graph))
      val prScd = Metrics.averagePrecisionRecall(comms, scdCl)
      rows += Seq(gName, "SCD", Timing.fmt(tScd), "-",
        f"${prScd.precision}%.3f", f"${prScd.recall}%.3f", f"${prScd.f1}%.3f")
      // PAR-CC at the resolution matching-or-beating SCD's F1, fastest such
      val points = ExpQuality.ccLambdas.map { l =>
        val (res, sec) = Timing.time(ParLouvain.cluster(gt.graph, l, LouvainOptions(seed = 3)))
        (l, Metrics.averagePrecisionRecall(comms, res.clusters), sec)
      }
      val dominating = points.filter(_._2.f1 >= prScd.f1)
      val pick = if (dominating.nonEmpty) dominating.minBy(_._3) else points.maxBy(_._2.f1)
      rows += Seq(gName, f"PAR-CC(l=${pick._1}%.2f)", Timing.fmt(pick._3),
        f"${tScd / pick._3}%.2fx",
        f"${pick._2.precision}%.3f", f"${pick._2.recall}%.3f", f"${pick._2.f1}%.3f")
    }
    Table("T13 (C.1): SCD vs PAR-CC",
      Seq("graph", "alg", "seconds", "speedup_vs_scd", "precision", "recall", "F1"),
      rows.result())
  }
}

/** T14 — LAMBDACC-MATLAB dense stand-in (§C.1): karate timing and the dense
  * scaling wall.
  */
object ExpDense {

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    val karate = GraphGen.karate
    def obj(g: LocalGraph, cl: Array[Int], lambda: Double) = f"${Objective.cc(g, cl, lambda)}%.6g"
    val dense  = () => DenseLouvain.cluster(karate, 0.01)
    val par    = () => ParLouvain.cluster(karate, 0.01, LouvainOptions(seed = 1)).clusters
    val seq    = () => SeqLouvain.cluster(karate, 0.01, LouvainOptions(seed = 1)).clusters
    val tDense = Timing.median(5)(dense())
    val tPar   = Timing.median(5)(par())
    val tSeq   = Timing.median(5)(seq())
    rows += Seq("karate(34v,78e)", "DENSE(LambdaCC-matlab standin)", Timing.fmt(tDense), "-",
      obj(karate, dense(), 0.01))
    rows += Seq("karate(34v,78e)", "PAR-CC", Timing.fmt(tPar), f"${tDense / tPar}%.1fx",
      obj(karate, par(), 0.01))
    rows += Seq("karate(34v,78e)", "SEQ-CC", Timing.fmt(tSeq), f"${tDense / tSeq}%.1fx",
      obj(karate, seq(), 0.01))
    // dense wall: time grows quadratically even on sparse graphs
    for (n <- Seq(500, 1000, 2000, 4000)) {
      val gt = GraphGen.sbm(n, 10, 30, 6, 2, seed = 13)
      val (cD, tD) = Timing.time(DenseLouvain.cluster(gt.graph, 0.05))
      val (rP, tP) = Timing.time(ParLouvain.cluster(gt.graph, 0.05, LouvainOptions(seed = 1)))
      rows += Seq(s"sbm(n=$n,m=${gt.graph.numEdges})", "DENSE", Timing.fmt(tD), "-",
        obj(gt.graph, cD, 0.05))
      rows += Seq(s"sbm(n=$n,m=${gt.graph.numEdges})", "PAR-CC", Timing.fmt(tP), f"${tD / tP}%.1fx",
        obj(gt.graph, rP.clusters, 0.05))
    }
    Table("T14 (C.1): dense MATLAB-style baseline vs our implementations",
      Seq("graph", "alg", "seconds", "speedup_over_dense", "objective"), rows.result())
  }
}
