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
// replicas. Its randomness is the rng it was built with; a caller that
// trains rounds reseeds that rng with TrainSeed before each one, so round r
// of client id draws the same stream wherever it is trained. The
// simulation's training workers are BenignClients re-targeted at every
// client they train, and flnet.BenignTrainer is one client over a socket.
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

// NewBenignClient creates a client training on data[shard] with the
// training stream rng. model may be nil when the caller keeps the models
// it passes to TrainWith; a non-nil model gets a scratch arena attached.
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

// TrainWith runs local training from the given global weights on the
// provided model (typically a reused worker model). The model's parameters
// are fully overwritten before training, so which worker trains which
// client never influences the result; the client's stream drives the shard
// shuffle. The update's weight vector is freshly allocated: the caller owns
// it.
func (c *BenignClient) TrainWith(global []float64, model *nn.Network) (Update, error) {
	return c.trainInto(make([]float64, 0, model.NumParams()), global, model)
}

// retarget points the client at round of client id of the run seeded seed:
// its shard (shared, and only ever read) and its training stream, seeded in
// place.
func (c *BenignClient) retarget(seed int64, round, id int, shard []int) {
	c.id, c.shard = id, shard
	c.rng.Seed(TrainSeed(seed, round, id))
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
