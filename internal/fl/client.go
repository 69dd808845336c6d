package fl

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenignClient owns a private data shard and faithfully executes local
// training (Eq. 1): initialize from the global model, run LocalEpochs of
// minibatch SGD on the shard, and return the resulting weights.
//
// A client does not have to own a model: TrainWith trains on a model its
// caller passes, so a 100-client population does not hold 100 model
// replicas. Standalone clients (the network protocol, examples) construct
// one with a model and call Train. The simulation's training workers are
// BenignClients too, each re-targeted at every client it trains, so the
// shuffle order, the minibatch and the RNG are reused across clients.
type BenignClient struct {
	id          int
	data        *dataset.Dataset
	shard       []int
	model       *nn.Network
	opt         *nn.SGD
	localEpochs int
	batchSize   int
	rng         *rand.Rand

	// order is the shard in this epoch's shuffled order; x and labels hold
	// the current minibatch. All three are reused from call to call.
	order  []int
	x      *tensor.Tensor
	labels []int
}

// NewBenignClient creates a client training on data[shard]. model may be
// nil when every caller provides the model via TrainWith; a non-nil model
// is owned by the client and gets a scratch arena attached.
func NewBenignClient(id int, data *dataset.Dataset, shard []int, model *nn.Network, lr float64, localEpochs, batchSize int, rng *rand.Rand) *BenignClient {
	if model != nil && model.Scratch() == nil {
		model.SetScratch(tensor.NewPool())
	}
	return &BenignClient{
		id:          id,
		data:        data,
		shard:       append([]int(nil), shard...),
		model:       model,
		opt:         nn.NewSGD(lr, 0),
		localEpochs: localEpochs,
		batchSize:   batchSize,
		rng:         rng,
	}
}

// ID returns the client identifier.
func (c *BenignClient) ID() int { return c.id }

// NumSamples returns the client's shard size n_i.
func (c *BenignClient) NumSamples() int { return len(c.shard) }

// Train runs local training from the given global weights on the client's
// own model and returns the client's update.
func (c *BenignClient) Train(global []float64) (Update, error) {
	return c.TrainWith(global, c.model)
}

// TrainWith runs local training from the given global weights on the
// provided model (typically a reused worker model). The model's parameters
// are fully overwritten before training, so which worker trains which
// client never influences the result; the client's private randomness
// drives the shard shuffle exactly as if it owned the model. The update's
// weight vector is freshly allocated: the caller owns it.
func (c *BenignClient) TrainWith(global []float64, model *nn.Network) (Update, error) {
	return c.trainInto(make([]float64, 0, model.NumParams()), global, model)
}

// retarget points the client at client id: its shard (shared, and only ever
// read) and its training stream, seeded in place — the same stream
// rand.New(rand.NewSource(seed)) yields.
func (c *BenignClient) retarget(id int, shard []int, seed int64) {
	c.id, c.shard = id, shard
	c.rng.Seed(seed)
}

// trainInto is TrainWith writing the weights into dst's storage, which
// holds the model's parameter count.
func (c *BenignClient) trainInto(dst, global []float64, model *nn.Network) (Update, error) {
	if err := model.SetWeightVector(global); err != nil {
		return Update{}, err
	}
	c.order = append(c.order[:0], c.shard...)
	for e := 0; e < c.localEpochs; e++ {
		c.rng.Shuffle(len(c.order), func(i, j int) {
			c.order[i], c.order[j] = c.order[j], c.order[i]
		})
		for start := 0; start < len(c.order); start += c.batchSize {
			end := min(start+c.batchSize, len(c.order))
			c.x, c.labels = c.data.BatchInto(c.x, c.labels, c.order[start:end])
			nn.TrainBatch(model, c.opt, c.x, c.labels)
		}
	}
	return Update{
		ClientID:   c.id,
		Weights:    model.AppendWeights(dst[:0]),
		NumSamples: len(c.shard),
	}, nil
}
