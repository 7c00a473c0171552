// Command mltrain walks through the paper's §5.2 machine-learning story:
// data-parallel logistic-regression training over serverless workers with a
// parameter server (flat, then hierarchical per Feng et al.), concurrent
// hyperparameter search (Seneca-style), and finally deploying the winning
// model behind an inference function with a TrIMS-style shared model cache.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/mlserve"
)

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	defer clock.Close()

	train, val := mlserve.SyntheticLogistic(2800, 8, 1).Split(0.7)

	clock.Run(func() {
		// 1. Distributed training: 16 workers, flat vs hierarchical PS.
		fmt.Println("— data-parallel training (16 workers, 5 rounds) —")
		for _, topo := range []struct {
			t    mlserve.Topology
			name string
		}{{mlserve.Flat, "flat PS"}, {mlserve.Hierarchical, "hierarchical PS"}} {
			rep, err := mlserve.TrainDistributed(platform.FaaS, train, mlserve.TrainConfig{
				Workers: 16, Rounds: 5, LR: 0.5, Topology: topo.t,
				PSService: 5 * time.Millisecond,
			})
			if err != nil {
				log.Fatal(err)
			}
			var total time.Duration
			for _, w := range rep.RoundWalls {
				total += w
			}
			fmt.Printf("  %-16s loss=%.4f acc=%.3f avg-round=%v\n",
				topo.name, rep.FinalLoss, mlserve.Accuracy(val, rep.Weights),
				(total / time.Duration(len(rep.RoundWalls))).Round(time.Millisecond))
		}

		// 2. Hyperparameter search: all configurations concurrently.
		fmt.Println("\n— hyperparameter grid search (12 trials, concurrent) —")
		hp, err := mlserve.GridSearch(platform.FaaS, train, val, mlserve.HyperConfig{
			LRs:        []float64{0.01, 0.1, 0.5, 1.0},
			Rounds:     []int{10, 30, 60},
			Concurrent: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  best: lr=%.2f rounds=%d valLoss=%.4f (wall %v for all %d trials)\n",
			hp.Best.LR, hp.Best.Rounds, hp.Best.Loss, hp.Wall.Round(time.Millisecond), len(hp.Trials))

		// 3. Train the winner and publish it to the model store.
		weights := mlserve.TrainSerial(train, hp.Best.LR, hp.Best.Rounds)
		if err := platform.Blob.CreateBucket("models", "ml-co"); err != nil {
			log.Fatal(err)
		}
		store := mlserve.NewModelStore(platform.Blob, "models")
		if err := store.Publish("churn-v1", weights); err != nil {
			log.Fatal(err)
		}

		// 4. Serve it: shared model cache removes the per-request load.
		fn, err := mlserve.Deploy(platform.FaaS, store, "churn", mlserve.ServeConfig{
			Model: "churn-v1", UseCache: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n— inference serving (shared model cache) —")
		for i := 0; i < 3; i++ {
			req, _ := json.Marshal(mlserve.InferRequest{Features: train.X[i]})
			res, err := platform.FaaS.Invoke(faas.Req{Name: fn, Payload: req})
			if err != nil {
				log.Fatal(err)
			}
			var out mlserve.InferResponse
			_ = json.Unmarshal(res.Output, &out)
			fmt.Printf("  request %d: p=%.3f label=%d truth=%.0f latency=%v cold=%v\n",
				i, out.Probability, out.Label, train.Y[i], res.Latency.Round(time.Millisecond), res.Cold)
		}
		hits, misses := store.CacheStats()
		fmt.Printf("  model cache: %d hits, %d misses\n", hits, misses)
	})

	fmt.Println()
	fmt.Print(platform.Tenant("mltrain").Invoice())
}
