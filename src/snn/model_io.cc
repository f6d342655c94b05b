#include "snn/model_io.hh"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace sushi::snn {

void
saveBinarySnn(const BinarySnn &net, std::ostream &os)
{
    os << "sushi-ssnn v1\n";
    os << "t_steps " << net.tSteps() << "\n";
    os << "layers " << net.layers().size() << "\n";
    for (const BinaryLayer &layer : net.layers()) {
        os << "layer " << layer.inDim() << " " << layer.outDim()
           << "\n";
        os << "thresholds";
        for (int t : layer.thresholds)
            os << " " << t;
        os << "\n";
        for (const auto &row : layer.weights) {
            os << "row ";
            for (std::int8_t w : row)
                os << (w > 0 ? '+' : '-');
            os << "\n";
        }
    }
}

namespace {

[[noreturn]] void
reject(const std::string &what)
{
    throw ModelFormatError("sushi-ssnn model: " + what);
}

std::string
inLayer(std::size_t l)
{
    return " in layer " + std::to_string(l);
}

} // namespace

BinarySnn
loadBinarySnn(std::istream &is)
{
    std::string magic, version;
    is >> magic >> version;
    if (magic != "sushi-ssnn" || version != "v1")
        reject("not a sushi-ssnn v1 model");

    std::string key;
    int t_steps = 0;
    std::size_t num_layers = 0;
    is >> key >> t_steps;
    if (!is || key != "t_steps" || t_steps < 1)
        reject("bad t_steps record");
    is >> key >> num_layers;
    if (!is || key != "layers" || num_layers == 0)
        reject("bad layers record");

    std::vector<BinaryLayer> layers;
    for (std::size_t l = 0; l < num_layers; ++l) {
        std::size_t in_dim = 0, out_dim = 0;
        is >> key >> in_dim >> out_dim;
        if (!is || key != "layer" || in_dim == 0 || out_dim == 0)
            reject("bad layer header" + inLayer(l));
        if (l > 0 && in_dim != layers.back().outDim())
            reject("in_dim " + std::to_string(in_dim) +
                   " differs from the previous out_dim " +
                   std::to_string(layers.back().outDim()) + inLayer(l));
        BinaryLayer layer;
        is >> key;
        if (!is || key != "thresholds")
            reject("missing thresholds" + inLayer(l));
        for (std::size_t o = 0; o < out_dim; ++o) {
            int t = 0;
            if (!(is >> t))
                reject("missing threshold " + std::to_string(o) +
                       inLayer(l));
            layer.thresholds.push_back(t);
        }
        for (std::size_t o = 0; o < out_dim; ++o) {
            std::string signs;
            is >> key >> signs;
            if (!is || key != "row" || signs.size() != in_dim)
                reject("bad weight row " + std::to_string(o) +
                       inLayer(l));
            std::vector<std::int8_t> row;
            row.reserve(in_dim);
            for (char c : signs) {
                if (c != '+' && c != '-')
                    reject(std::string("bad sign '") + c + "'" +
                           inLayer(l));
                row.push_back(c == '+' ? 1 : -1);
            }
            layer.weights.push_back(std::move(row));
        }
        layers.push_back(std::move(layer));
    }
    return BinarySnn::fromLayers(std::move(layers), t_steps);
}

std::string
binarySnnToString(const BinarySnn &net)
{
    std::ostringstream os;
    saveBinarySnn(net, os);
    return os.str();
}

BinarySnn
binarySnnFromString(const std::string &text)
{
    std::istringstream is(text);
    return loadBinarySnn(is);
}

} // namespace sushi::snn
