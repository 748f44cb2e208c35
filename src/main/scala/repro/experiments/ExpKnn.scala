package repro.experiments

import repro.baselines.PlmBaseline
import repro.core._
import repro.eval.Metrics
import repro.knn.KnnGraph

/** T15 — weighted k-NN graphs (§C.2, Figs 15/16): precision/recall and
  * ARI/NMI of PAR-CC^W (weighted), PAR-CC (unweighted view), PAR-MOD, and
  * the NetworKit stand-in on digits-lite / letter-lite.
  */
object ExpKnn {

  final case class Dataset(name: String, n: Int, classes: Int, dim: Int, sigma: Double)
  // paper: digits = 1,797 instances / 10 classes (64 features); letter =
  // 20,000 / 26 (16 features). letter is scaled to 8,000 points to fit the
  // container's O(n²) exact kNN; its dimension is raised to 32 so 26 random
  // centers stay separable, mirroring the real dataset's class structure.
  val datasets: Seq[Dataset] = Seq(
    Dataset("digits-lite", 1797, 10, 16, 0.35),
    Dataset("letter-lite", 8000, 26, 32, 0.30),
  )

  private def communitiesOf(labels: Array[Int]): Seq[Array[Int]] =
    labels.zipWithIndex.groupBy(_._1).values.map(_.map(_._2)).toSeq.sortBy(-_.length)

  def table(): Table = {
    val rows = Seq.newBuilder[Seq[String]]
    for (ds <- datasets) {
      val ps = KnnGraph.gaussianMixture(ds.n, dim = ds.dim, classes = ds.classes,
        sigma = ds.sigma, seed = 42)
      val gw = KnnGraph.cosineKnnGraph(ps, k = 50)
      val gu = gw.unweighted // the paper's PAR-CC vs PAR-CC^W
      val comms = communitiesOf(ps.labels)
      def score(name: String, param: String, cl: Array[Int]): Unit = {
        val pr = Metrics.averagePrecisionRecall(comms, cl, topK = ds.classes)
        rows += Seq(ds.name, name, param, f"${pr.precision}%.3f", f"${pr.recall}%.3f",
          f"${Metrics.ari(cl, ps.labels)}%.3f", f"${Metrics.nmi(cl, ps.labels)}%.3f")
      }
      for (l <- Seq(0.01, 0.02, 0.05, 0.1, 0.2, 0.4)) {
        score("PAR-CC^W", f"l=$l%.2f", ParLouvain.cluster(gw, l, LouvainOptions(seed = 3)).clusters)
        score("PAR-CC", f"l=$l%.2f", ParLouvain.cluster(gu, l, LouvainOptions(seed = 3)).clusters)
      }
      for (gamma <- Seq(0.3, 1.0, 3.0, 10.0)) {
        score("PAR-MOD", f"g=$gamma%.1f",
          ParLouvain.clusterModularity(gu, gamma, LouvainOptions(seed = 3)).clusters)
        // NetworKit stand-in consumes the weighted graph, like the paper's NETWORKIT
        score("NETWORKIT*", f"g=$gamma%.1f",
          PlmBaseline.clusterModularity(gw, gamma).clusters)
      }
    }
    Table("T15 (Fig 15/16): weighted kNN graphs — precision/recall and ARI/NMI",
      Seq("dataset", "alg", "param", "precision", "recall", "ARI", "NMI"),
      rows.result())
  }
}
