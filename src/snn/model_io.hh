/**
 * @file
 * Text serialization of binarized SSNN models.
 *
 * A trained, binarized network is the artifact the off-chip encoding
 * phase consumes (Fig. 12(a)); persisting it lets examples and
 * benches train once and reuse, and gives deployments a stable
 * interchange format. The format is line-oriented and human-
 * readable:
 *
 *   sushi-ssnn v1
 *   t_steps <T>
 *   layers <L>
 *   layer <in_dim> <out_dim>
 *   thresholds <t0> <t1> ...
 *   row +--+... (one sign-string row per output neuron)
 */

#ifndef SUSHI_SNN_MODEL_IO_HH
#define SUSHI_SNN_MODEL_IO_HH

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "snn/binarize.hh"

namespace sushi::snn {

/** A model stream that is not a well-formed sushi-ssnn v1 model. */
class ModelFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Serialize a binarized network to a stream. */
void saveBinarySnn(const BinarySnn &net, std::ostream &os);

/**
 * Parse a binarized network from a stream. Records are read one at a
 * time, so a header that declares more rows than the stream holds
 * fails at the first missing row without allocating for the rest.
 * @throws ModelFormatError on malformed or truncated input, or when
 *         a layer's in_dim differs from the previous layer's out_dim.
 */
BinarySnn loadBinarySnn(std::istream &is);

/** Convenience: serialize to / parse from a string. */
std::string binarySnnToString(const BinarySnn &net);
BinarySnn binarySnnFromString(const std::string &text);

} // namespace sushi::snn

#endif // SUSHI_SNN_MODEL_IO_HH
